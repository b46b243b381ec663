#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "obs/profiler.h"
#include "serve/batch_scheduler.h"
#include "serve/engine_session.h"
#include "serve/server.h"
#include "serve_fixtures.h"
#include "util/rng.h"

namespace cq::serve {
namespace {

using tensor::Tensor;

TEST(EngineSession, DerivesShapesFromTheArchitecture) {
  EngineSession vgg(tiny_vgg_artifact());
  EXPECT_EQ(vgg.sample_shape(), (tensor::Shape{3, 8, 8}));
  EXPECT_EQ(vgg.num_classes(), 4);
  EXPECT_EQ(vgg.integer_layer_count(), 7u);  // conv1-4 + fc5-7

  EngineSession mlp(tiny_mlp_artifact());
  EXPECT_EQ(mlp.sample_shape(), (tensor::Shape{12}));
  EXPECT_EQ(mlp.num_classes(), 5);
  EXPECT_EQ(mlp.integer_layer_count(), 2u);  // hidden layers 1..2
}

TEST(EngineSession, RejectsBadBatchShapes) {
  EngineSession session(tiny_vgg_artifact());
  EXPECT_THROW(session.run(Tensor({3, 8, 8})), std::invalid_argument);      // no N
  EXPECT_THROW(session.run(Tensor({1, 3, 8, 4})), std::invalid_argument);   // bad W
  EXPECT_THROW(session.run(Tensor({2, 1, 8, 8})), std::invalid_argument);   // bad C
  EXPECT_THROW(EngineSession(tiny_vgg_artifact(), 0), std::invalid_argument);
}

/// The integer pipeline must reproduce the instantiated model's
/// fake-quant forward within float-accumulation tolerance — this is
/// the end-to-end composition of the per-layer int_engine contracts.
class EngineMatchesModel : public ::testing::TestWithParam<int> {};

TEST_P(EngineMatchesModel, VggMlpAndResNet) {
  const int which = GetParam();
  const deploy::QuantizedArtifact artifact =
      which == 0 ? tiny_vgg_artifact()
                 : which == 1 ? tiny_mlp_artifact() : tiny_resnet_artifact();
  EngineSession session(artifact);
  auto reference = deploy::instantiate(artifact);

  const Tensor batch = random_batch(session.sample_shape(), 5, 23);
  const Tensor ours = session.run(batch);
  const Tensor expected = reference->forward(batch);
  ASSERT_EQ(ours.shape(), expected.shape());
  for (std::size_t i = 0; i < ours.numel(); ++i) {
    EXPECT_NEAR(ours[i], expected[i], 5e-3f) << "model " << which << " output " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, EngineMatchesModel, ::testing::Values(0, 1, 2));

/// The serving invariant: batching is a pure scheduling concern.
/// Running samples one at a time must produce byte-identical outputs
/// to any coalescing of the same samples.
class BatchingBitExact : public ::testing::TestWithParam<int> {};

TEST_P(BatchingBitExact, OneAtATimeEqualsCoalesced) {
  const int which = GetParam();
  const deploy::QuantizedArtifact artifact =
      which == 0 ? tiny_vgg_artifact()
                 : which == 1 ? tiny_mlp_artifact() : tiny_resnet_artifact();
  EngineSession session(artifact);
  const int n = 9;
  const Tensor batch = random_batch(session.sample_shape(), n, 31);
  const std::size_t sample_numel = tensor::shape_numel(session.sample_shape());

  const Tensor coalesced = session.run(batch);

  tensor::Shape one_shape;
  one_shape.push_back(1);
  one_shape.insert(one_shape.end(), session.sample_shape().begin(),
                   session.sample_shape().end());
  for (int i = 0; i < n; ++i) {
    Tensor one(one_shape);
    for (std::size_t j = 0; j < sample_numel; ++j) {
      one[j] = batch[static_cast<std::size_t>(i) * sample_numel + j];
    }
    const Tensor single = session.run(one);
    ASSERT_EQ(single.numel(), static_cast<std::size_t>(session.num_classes()));
    for (int c = 0; c < session.num_classes(); ++c) {
      ASSERT_EQ(single[static_cast<std::size_t>(c)],
                coalesced[static_cast<std::size_t>(i * session.num_classes() + c)])
          << "model " << which << " sample " << i << " class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, BatchingBitExact, ::testing::Values(0, 1, 2));

TEST(EngineSession, ConcurrentRunsOnMultipleContextsMatchSerial) {
  const deploy::QuantizedArtifact artifact = tiny_vgg_artifact();
  EngineSession serial(artifact, 1);
  EngineSession concurrent(artifact, 4);

  constexpr int kThreads = 8;
  constexpr int kRepeats = 4;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_batch(serial.sample_shape(), 2, 100 + t));
    expected.push_back(serial.run(inputs.back()));
  }

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        const Tensor out = concurrent.run(inputs[static_cast<std::size_t>(t)]);
        const Tensor& want = expected[static_cast<std::size_t>(t)];
        if (out.shape() != want.shape()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < out.numel(); ++i) {
          if (out[i] != want[i]) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BatchScheduler, FlushesWhenMaxBatchIsReached) {
  BatchSchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50000;  // large enough that only the size trigger fires
  BatchScheduler scheduler(cfg);
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.sample = Tensor({1});
    request.submitted = std::chrono::steady_clock::now();
    ASSERT_TRUE(scheduler.push(request));
  }
  std::vector<Request> batch;
  ASSERT_TRUE(scheduler.pop_batch(batch));
  EXPECT_EQ(batch.size(), 4u);  // capped at max_batch
  ASSERT_TRUE(scheduler.pop_batch(batch));
  EXPECT_EQ(batch.size(), 2u);  // remainder after the oldest's window
}

TEST(BatchScheduler, FlushesAPartialBatchAfterMaxWait) {
  BatchSchedulerConfig cfg;
  cfg.max_batch = 64;
  cfg.max_wait_us = 2000;
  BatchScheduler scheduler(cfg);
  Request request;
  request.sample = Tensor({1});
  request.submitted = std::chrono::steady_clock::now();
  ASSERT_TRUE(scheduler.push(request));

  std::vector<Request> batch;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(scheduler.pop_batch(batch));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  // The pop must not hang anywhere near the 64-request fill level; it
  // returns once the oldest request's window expires.
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 1.0);
}

TEST(BatchScheduler, CloseRejectsPushesAndDrainsTheQueue) {
  BatchScheduler scheduler({});
  Request queued;
  queued.sample = Tensor({1});
  queued.submitted = std::chrono::steady_clock::now();
  ASSERT_TRUE(scheduler.push(queued));
  scheduler.close();
  EXPECT_TRUE(scheduler.closed());

  Request rejected;
  rejected.sample = Tensor({1});
  EXPECT_FALSE(scheduler.push(rejected));

  std::vector<Request> batch;
  EXPECT_TRUE(scheduler.pop_batch(batch));  // drains the queued request
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(scheduler.pop_batch(batch));  // closed and empty
}

/// The headline serving test: the same inputs submitted by 8
/// concurrent threads — coalesced into whatever micro-batches the
/// scheduler forms — must produce byte-identical outputs to the
/// one-at-a-time EngineSession reference.
TEST(Server, CoalescedOutputsAreByteIdenticalUnderConcurrentLoad) {
  const deploy::QuantizedArtifact artifact = tiny_vgg_artifact();

  EngineSession reference(artifact, 1, {},
                          deploy::make_backend(deploy::BackendKind::Scalar));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::vector<std::vector<Tensor>> inputs(kThreads);
  std::vector<std::vector<Tensor>> expected(kThreads);
  tensor::Shape one_shape{1, 3, 8, 8};
  for (int t = 0; t < kThreads; ++t) {
    util::Rng rng(500 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) {
      inputs[static_cast<std::size_t>(t)].push_back(
          Tensor::rand_uniform({3, 8, 8}, rng, 0.0f, 1.0f));
      const Tensor& sample = inputs[static_cast<std::size_t>(t)].back();
      Tensor one(one_shape);
      for (std::size_t j = 0; j < sample.numel(); ++j) one[j] = sample[j];
      expected[static_cast<std::size_t>(t)].push_back(reference.run(one));
    }
  }

  ServerConfig config;
  config.workers = 4;
  config.max_batch = 8;
  config.max_wait_us = 500;
  Server server(artifact, config);

  std::vector<std::thread> submitters;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Tensor out =
            server.submit(inputs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)])
                .get();
        const Tensor& want =
            expected[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        // want is [1, classes]; out is [classes].
        if (out.numel() != want.numel()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t j = 0; j < out.numel(); ++j) {
          if (out[j] != want[j]) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.p50_us, 0.0);
  EXPECT_GE(stats.p99_us, stats.p50_us);
  EXPECT_GT(stats.throughput_rps, 0.0);
}

/// Server(artifact, config) compiles through compile_session_plan at
/// ServerConfig::opt and then serves like the shared-plan constructor:
/// kO0 serves the plan as compiled, kO1 the optimize_plan rewrite, and
/// both answer byte for byte like the unoptimized scalar reference.
TEST(Server, ArtifactConstructorServesThePlanAtItsOptLevel) {
  const deploy::QuantizedArtifact artifact = tiny_resnet_artifact();
  const std::size_t compiled_ops = deploy::compile_plan(artifact).ops().size();
  deploy::ExecutionPlan optimized = deploy::compile_plan(artifact);
  deploy::optimize_plan(optimized);
  const std::size_t optimized_ops = optimized.ops().size();
  ASSERT_LT(optimized_ops, compiled_ops);  // the two levels are told apart

  EngineSession reference(artifact, 1, {},
                          deploy::make_backend(deploy::BackendKind::Scalar),
                          PlanCheck::kNone, PlanOpt::kO0);
  const tensor::Shape& sample_shape = reference.sample_shape();
  const std::size_t sample_numel = tensor::shape_numel(sample_shape);
  constexpr int kSamples = 3;
  const Tensor batch = random_batch(sample_shape, kSamples, 77);
  const Tensor want = reference.run(batch);
  const std::size_t classes = static_cast<std::size_t>(reference.num_classes());

  for (const PlanOpt opt : {PlanOpt::kO0, PlanOpt::kO1}) {
    SCOPED_TRACE(opt == PlanOpt::kO0 ? "kO0" : "kO1");
    ServerConfig config;
    config.workers = 2;
    config.opt = opt;
    Server server(artifact, config);
    EXPECT_EQ(server.session().plan().ops().size(),
              opt == PlanOpt::kO0 ? compiled_ops : optimized_ops);
    for (int i = 0; i < kSamples; ++i) {
      Tensor sample(sample_shape);
      std::memcpy(sample.data(), batch.data() + static_cast<std::size_t>(i) * sample_numel,
                  sample_numel * sizeof(float));
      const Tensor out = server.submit(std::move(sample)).get();
      ASSERT_EQ(out.numel(), classes);
      EXPECT_EQ(std::memcmp(out.data(), want.data() + static_cast<std::size_t>(i) * classes,
                            classes * sizeof(float)),
                0)
          << "sample " << i;
    }
  }
}

TEST(Server, ShapeMismatchFailsOnlyThatRequest) {
  Server server(tiny_mlp_artifact(), {});
  auto bad = server.submit(Tensor({7}));  // MLP wants 12 features
  EXPECT_THROW(bad.get(), std::invalid_argument);
  util::Rng rng(3);
  auto good = server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f));
  EXPECT_EQ(good.get().numel(), 5u);
}

TEST(Server, RejectsLayoutMismatchWithMatchingElementCount) {
  // [8, 8, 3] has the same numel as the artifact's [3, 8, 8] input; a
  // coalesce-by-numel would answer it with silently transposed data.
  Server server(tiny_vgg_artifact(), {});
  util::Rng rng(9);
  auto transposed = server.submit(Tensor::rand_uniform({8, 8, 3}, rng, 0.0f, 1.0f));
  EXPECT_THROW(transposed.get(), std::invalid_argument);
  auto good = server.submit(Tensor::rand_uniform({3, 8, 8}, rng, 0.0f, 1.0f));
  EXPECT_EQ(good.get().numel(), 4u);
}

TEST(Server, ResetStatsZeroesCountersAfterWarmup) {
  Server server(tiny_mlp_artifact(), {});
  util::Rng rng(21);
  for (int i = 0; i < 5; ++i) {
    server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)).get();
  }
  EXPECT_EQ(server.stats().completed, 5u);
  server.reset_stats();
  const ServerStats cleared = server.stats();
  EXPECT_EQ(cleared.completed, 0u);
  EXPECT_EQ(cleared.batches, 0u);
  EXPECT_EQ(cleared.p99_us, 0.0);
  server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)).get();
  const ServerStats after = server.stats();
  EXPECT_EQ(after.completed, 1u);
  EXPECT_GT(after.p50_us, 0.0);
}

/// The reset/snapshot window contract: resetting while submitters and
/// workers are in full flight must never surface an inconsistent
/// snapshot — no negative throughput, no percentile below min or above
/// max, no completed count the latency histogram did not see.
TEST(Server, ResetStatsWhileInFlightNeverMixesWindows) {
  ServerConfig config;
  config.workers = 2;
  config.max_batch = 4;
  config.max_wait_us = 100;
  Server server(tiny_mlp_artifact(), config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&server, t] {
      util::Rng rng(700 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)).get();
      }
    });
  }
  std::thread resetter([&server, &stop] {
    while (!stop.load()) {
      server.reset_stats();
      const ServerStats s = server.stats();
      EXPECT_GE(s.throughput_rps, 0.0);
      EXPECT_GE(s.elapsed_s, 0.0);
      EXPECT_LE(s.p50_us, s.p95_us);
      EXPECT_LE(s.p95_us, s.p99_us);
      EXPECT_LE(s.p99_us, s.max_us);
      EXPECT_LE(s.p50_queue_us, s.p95_queue_us);
      EXPECT_LE(s.p50_exec_us, s.p95_exec_us);
      if (s.completed > 0) {
        EXPECT_GT(s.p50_us, 0.0);
        EXPECT_GT(s.mean_us, 0.0);
      } else {
        EXPECT_EQ(s.p99_us, 0.0);
        EXPECT_EQ(s.batches, 0u);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& submitter : submitters) submitter.join();
  stop.store(true);
  resetter.join();

  // A quiet window after the storm must still account crisply.
  server.reset_stats();
  util::Rng rng(31);
  for (int i = 0; i < 3; ++i) {
    server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)).get();
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_GE(s.batches, 1u);
}

TEST(Server, StatsBreakDownLatencyIntoQueueWaitAndExecute) {
  ServerConfig config;
  config.workers = 1;
  config.max_batch = 4;
  Server server(tiny_mlp_artifact(), config);
  util::Rng rng(13);
  std::vector<std::future<Tensor>> inflight;
  for (int i = 0; i < 16; ++i) {
    inflight.push_back(server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)));
  }
  for (auto& f : inflight) f.get();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 16u);
  // Every request waited in the queue and rode an executed batch, so
  // both component distributions are populated and each component is
  // bounded by the end-to-end latency it is part of.
  EXPECT_GT(s.mean_exec_us, 0.0);
  EXPECT_GE(s.mean_queue_us, 0.0);
  EXPECT_LE(s.p50_queue_us, s.max_us);
  EXPECT_LE(s.p50_exec_us, s.max_us);
}

TEST(Server, MetricsRegistryExportsTheServingInstruments) {
  Server server(tiny_mlp_artifact(), {});
  util::Rng rng(17);
  server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)).get();
  auto bad = server.submit(Tensor({5}));
  EXPECT_THROW(bad.get(), std::invalid_argument);

  const std::string json = server.metrics().to_json();
  EXPECT_NE(json.find("\"requests_submitted\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests_failed\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_us\""), std::string::npos);
  EXPECT_NE(json.find("\"execute_us\""), std::string::npos);
  EXPECT_NE(json.find("\"backend_prepared_bytes\""), std::string::npos);
  const std::string prom = server.metrics().to_prometheus();
  EXPECT_NE(prom.find("requests_submitted_total 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("latency_us_count 1"), std::string::npos) << prom;
}

/// A span sink must see every request with causally ordered timestamps:
/// submit <= popped <= exec_begin <= exec_end <= done, and batch/worker
/// fields that make sense for the serving configuration.
TEST(Server, SpanSinkSeesOrderedTimestampsForEveryRequest) {
  class CollectingSink : public obs::SpanSink {
   public:
    void on_span(const obs::RequestSpan& span) override {
      std::lock_guard<std::mutex> lock(mutex_);
      spans_.push_back(span);
    }
    std::vector<obs::RequestSpan> take() {
      std::lock_guard<std::mutex> lock(mutex_);
      return spans_;
    }

   private:
    std::mutex mutex_;
    std::vector<obs::RequestSpan> spans_;
  };

  ServerConfig config;
  config.workers = 2;
  config.max_batch = 4;
  CollectingSink sink;
  Server server(tiny_mlp_artifact(), config);
  server.set_span_sink(&sink);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&server, t] {
      util::Rng rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f)).get();
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  server.shutdown();  // workers are done: every span has been emitted
  server.set_span_sink(nullptr);

  const std::vector<obs::RequestSpan> spans = sink.take();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<std::uint64_t> ids;
  for (const obs::RequestSpan& span : spans) {
    EXPECT_LE(span.submit, span.popped);
    EXPECT_LE(span.popped, span.exec_begin);
    EXPECT_LE(span.exec_begin, span.exec_end);
    EXPECT_LE(span.exec_end, span.done);
    EXPECT_GE(span.batch, 1);
    EXPECT_LE(span.batch, config.max_batch);
    EXPECT_GE(span.worker, 0);
    EXPECT_LT(span.worker, config.workers);
    ids.push_back(span.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());  // ids are distinct
}

/// Per-op tracing through the full server: the profiler must attribute
/// every op of every executed batch, while outputs stay byte-identical
/// to the untraced engine (tracing is observation, not interference).
TEST(Server, OpTraceProfilesServedBatchesWithoutChangingOutputs) {
  const deploy::QuantizedArtifact artifact = tiny_mlp_artifact();
  EngineSession reference(artifact, 1, {},
                          deploy::make_backend(deploy::BackendKind::Scalar));
  ServerConfig config;
  config.workers = 2;
  Server server(artifact, config);
  obs::PlanProfiler profiler(server.session().plan(), &server.session().backend());
  server.set_op_trace(&profiler);

  util::Rng rng(47);
  for (int i = 0; i < 10; ++i) {
    const Tensor sample = Tensor::rand_uniform({12}, rng, 0.0f, 1.0f);
    Tensor one({1, 12});
    for (std::size_t j = 0; j < sample.numel(); ++j) one[j] = sample[j];
    const Tensor expected = reference.run(one);
    const Tensor out = server.submit(sample).get();
    ASSERT_EQ(out.numel(), expected.numel());
    for (std::size_t j = 0; j < out.numel(); ++j) EXPECT_EQ(out[j], expected[j]);
  }
  server.shutdown();
  server.set_op_trace(nullptr);

  const obs::ProfileReport report = profiler.report();
  ASSERT_EQ(report.ops.size(), server.session().plan().ops().size());
  for (const obs::OpProfileRow& row : report.ops) {
    EXPECT_GE(row.calls, 1u);
    EXPECT_EQ(row.samples, 10u);  // every sample flowed through every op
  }
  EXPECT_GT(report.total_ms, 0.0);
}

TEST(Server, SubmitAfterShutdownFailsTheFuture) {
  Server server(tiny_mlp_artifact(), {});
  util::Rng rng(5);
  auto before = server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f));
  EXPECT_EQ(before.get().numel(), 5u);
  server.shutdown();
  server.shutdown();  // idempotent
  auto after = server.submit(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f));
  EXPECT_THROW(after.get(), std::runtime_error);
}

}  // namespace
}  // namespace cq::serve
