// cq::net tests: CQN1 protocol framing (round trips, incremental
// decode, every malformed-frame class, deterministic fuzz), the socket
// front end over a live ModelRegistry (localhost round trips
// byte-identical to in-process EngineSession::run for every zoo
// fixture), and the failure paths a network server must absorb:
// mid-stream disconnects, garbage streams, reply-direction frames,
// pipelined overload answered with explicit kBusy.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/front_end.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "serve/engine_session.h"
#include "serve/model_registry.h"
#include "serve_fixtures.h"
#include "util/rng.h"

namespace cq {
namespace {

net::Frame decode_one(const std::vector<std::uint8_t>& bytes) {
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  net::Frame frame;
  EXPECT_TRUE(decoder.next(frame));
  EXPECT_TRUE(decoder.at_frame_boundary());
  return frame;
}

tensor::Tensor sample_tensor(const tensor::Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(shape, rng, -1.0f, 1.0f);
}

TEST(NetProtocol, InferRoundTrip) {
  net::Frame frame;
  frame.type = net::FrameType::kInfer;
  frame.request_id = 0x1122334455667788ULL;
  frame.model = "tiny_vgg";
  frame.tensor = sample_tensor({3, 8, 8}, 7);

  const net::Frame out = decode_one(net::encode_frame(frame));
  EXPECT_EQ(out.type, net::FrameType::kInfer);
  EXPECT_EQ(out.request_id, frame.request_id);
  EXPECT_EQ(out.model, "tiny_vgg");
  ASSERT_EQ(out.tensor.shape(), frame.tensor.shape());
  EXPECT_EQ(std::memcmp(out.tensor.data(), frame.tensor.data(),
                        frame.tensor.numel() * sizeof(float)),
            0);
}

TEST(NetProtocol, ResultBusyErrorInfoRoundTrip) {
  {
    net::Frame frame;
    frame.type = net::FrameType::kResult;
    frame.request_id = 42;
    frame.tensor = sample_tensor({5}, 9);
    const net::Frame out = decode_one(net::encode_frame(frame));
    EXPECT_EQ(out.type, net::FrameType::kResult);
    ASSERT_EQ(out.tensor.shape(), tensor::Shape({5}));
    EXPECT_EQ(std::memcmp(out.tensor.data(), frame.tensor.data(), 5 * sizeof(float)),
              0);
  }
  {
    net::Frame frame;
    frame.type = net::FrameType::kBusy;
    frame.request_id = 43;
    frame.message = "queue is full";
    const net::Frame out = decode_one(net::encode_frame(frame));
    EXPECT_EQ(out.type, net::FrameType::kBusy);
    EXPECT_EQ(out.message, "queue is full");
  }
  {
    net::Frame frame;
    frame.type = net::FrameType::kError;
    frame.request_id = 44;
    frame.message = "unknown model 'x'";
    const net::Frame out = decode_one(net::encode_frame(frame));
    EXPECT_EQ(out.type, net::FrameType::kError);
    EXPECT_EQ(out.message, "unknown model 'x'");
  }
  {
    net::Frame frame;
    frame.type = net::FrameType::kInfo;
    frame.request_id = 45;
    frame.model = "m";
    EXPECT_EQ(decode_one(net::encode_frame(frame)).model, "m");
  }
  {
    net::Frame frame;
    frame.type = net::FrameType::kInfoReply;
    frame.request_id = 46;
    frame.sample_shape = {3, 8, 8};
    frame.num_classes = 4;
    frame.model_version = 3;
    const net::Frame out = decode_one(net::encode_frame(frame));
    EXPECT_EQ(out.sample_shape, tensor::Shape({3, 8, 8}));
    EXPECT_EQ(out.num_classes, 4);
    EXPECT_EQ(out.model_version, 3);
  }
}

TEST(NetProtocol, DecodesByteByByte) {
  net::Frame frame;
  frame.type = net::FrameType::kInfer;
  frame.request_id = 77;
  frame.model = "m";
  frame.tensor = sample_tensor({12}, 3);
  const std::vector<std::uint8_t> bytes = net::encode_frame(frame);

  net::FrameDecoder decoder;
  net::Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    EXPECT_FALSE(decoder.next(out)) << "frame complete after " << i + 1 << " bytes";
  }
  decoder.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_TRUE(decoder.at_frame_boundary());
}

TEST(NetProtocol, DecodesTwoFramesFromOneFeed) {
  net::Frame a;
  a.type = net::FrameType::kInfo;
  a.request_id = 1;
  a.model = "first";
  net::Frame b;
  b.type = net::FrameType::kBusy;
  b.request_id = 2;
  b.message = "second";
  std::vector<std::uint8_t> bytes = net::encode_frame(a);
  const std::vector<std::uint8_t> second = net::encode_frame(b);
  bytes.insert(bytes.end(), second.begin(), second.end());

  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  net::Frame out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.model, "first");
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out.message, "second");
  EXPECT_FALSE(decoder.next(out));
}

std::vector<std::uint8_t> valid_infer_bytes() {
  net::Frame frame;
  frame.type = net::FrameType::kInfer;
  frame.request_id = 5;
  frame.model = "m";
  frame.tensor = sample_tensor({4}, 1);
  return net::encode_frame(frame);
}

void expect_poisoned(std::vector<std::uint8_t> bytes) {
  net::FrameDecoder decoder;
  net::Frame out;
  bool threw = false;
  try {
    decoder.feed(bytes.data(), bytes.size());
    while (decoder.next(out)) {
    }
  } catch (const net::ProtocolError&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "malformed frame decoded cleanly";
  EXPECT_TRUE(decoder.failed());
  // Poisoned decoders keep refusing — feeding more does not resync.
  EXPECT_THROW(decoder.next(out), net::ProtocolError);
}

TEST(NetProtocol, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = valid_infer_bytes();
  bytes[4] ^= 0xFF;  // first magic byte
  expect_poisoned(std::move(bytes));
}

TEST(NetProtocol, RejectsBadVersion) {
  std::vector<std::uint8_t> bytes = valid_infer_bytes();
  bytes[8] = 0x7F;
  expect_poisoned(std::move(bytes));
}

TEST(NetProtocol, RejectsUnknownType) {
  std::vector<std::uint8_t> bytes = valid_infer_bytes();
  bytes[10] = 0x99;
  expect_poisoned(std::move(bytes));
}

TEST(NetProtocol, RejectsOversizedLength) {
  std::vector<std::uint8_t> bytes = valid_infer_bytes();
  // Length word claims 1 GiB: must be rejected from the prefix alone,
  // before any attempt to buffer that much.
  const std::uint32_t huge = 1u << 30;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  expect_poisoned(std::move(bytes));
}

TEST(NetProtocol, RejectsLengthTooSmallForHeader) {
  std::vector<std::uint8_t> bytes = valid_infer_bytes();
  const std::uint32_t tiny = 4;
  std::memcpy(bytes.data(), &tiny, sizeof(tiny));
  expect_poisoned(std::move(bytes));
}

TEST(NetProtocol, RejectsPayloadShapeMismatch) {
  std::vector<std::uint8_t> bytes = valid_infer_bytes();
  // Chop the last float: declared dims no longer match the payload.
  bytes.resize(bytes.size() - sizeof(float));
  const std::uint32_t shorter = static_cast<std::uint32_t>(bytes.size() - 4);
  std::memcpy(bytes.data(), &shorter, sizeof(shorter));
  expect_poisoned(std::move(bytes));
}

TEST(NetProtocol, TruncatedFrameStaysPending) {
  const std::vector<std::uint8_t> bytes = valid_infer_bytes();
  net::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 3);
  net::Frame out;
  EXPECT_FALSE(decoder.next(out));
  EXPECT_FALSE(decoder.failed());  // incomplete, not malformed
  EXPECT_GT(decoder.pending_bytes(), 0u);
  EXPECT_FALSE(decoder.at_frame_boundary());
}

TEST(NetProtocol, EncodeRejectsUnrepresentableFrames) {
  net::Frame frame;
  frame.type = net::FrameType::kInfer;
  frame.model = std::string(net::kMaxModelName + 1, 'x');
  frame.tensor = sample_tensor({4}, 2);
  EXPECT_THROW(net::encode_frame(frame), net::ProtocolError);

  net::Frame rank0;
  rank0.type = net::FrameType::kResult;
  EXPECT_THROW(net::encode_frame(rank0), net::ProtocolError);
}

// Deterministic fuzz: random mutations of valid frames and raw random
// garbage must always either decode or throw ProtocolError — never
// crash, never hang, never accept a frame that violates the limits.
TEST(NetProtocol, FuzzedStreamsNeverCrash) {
  util::Rng rng(0xF00D);
  const std::vector<std::uint8_t> valid = valid_infer_bytes();
  int rejected = 0;
  int decoded = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes;
    if (round % 3 == 0) {  // pure garbage
      bytes.resize(static_cast<std::size_t>(rng.uniform_int(1, 200)));
      for (std::uint8_t& b : bytes) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    } else {  // mutated valid frame
      bytes = valid;
      const int flips = static_cast<int>(rng.uniform_int(1, 8));
      for (int i = 0; i < flips; ++i) {
        const auto pos =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
        bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      if (rng.uniform() < 0.3) {
        bytes.resize(static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(bytes.size()))));
      }
    }
    net::FrameDecoder decoder;
    net::Frame out;
    try {
      // Feed in random chunk sizes to fuzz the incremental path too.
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        const auto chunk = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(bytes.size() - offset)));
        decoder.feed(bytes.data() + offset, chunk);
        offset += chunk;
        while (decoder.next(out)) ++decoded;
      }
    } catch (const net::ProtocolError&) {
      ++rejected;
    }
  }
  // The exact split depends on which bytes mutate, but both outcomes
  // must occur: header mutations reject, float-payload mutations decode.
  EXPECT_GT(rejected, 100);
  EXPECT_GT(decoded, 100);
}

// ---------------------------------------------------------------- //
// Front end over a live registry.                                  //
// ---------------------------------------------------------------- //

struct ZooCase {
  const char* name;
  deploy::QuantizedArtifact (*make)();
};

const ZooCase kZoo[] = {
    {"tiny_vgg", serve::tiny_vgg_artifact},
    {"tiny_mlp", serve::tiny_mlp_artifact},
    {"tiny_resnet", serve::tiny_resnet_artifact},
};

class FrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const ZooCase& z : kZoo) {
      artifacts_.push_back(z.make());
      serve::ModelConfig config;
      config.server.workers = 2;
      registry_.load(z.name, artifacts_.back(), config);
    }
    net::FrontEndConfig config;
    config.port = 0;
    front_ = std::make_unique<net::FrontEnd>(registry_, config);
  }

  serve::ModelRegistry registry_;
  std::vector<deploy::QuantizedArtifact> artifacts_;
  std::unique_ptr<net::FrontEnd> front_;
};

TEST_F(FrontEndTest, RoundTripsByteIdenticalToEngineSession) {
  for (std::size_t m = 0; m < std::size(kZoo); ++m) {
    net::Client client("localhost", front_->port());
    const net::Client::ModelInfo info = client.info(kZoo[m].name);
    serve::EngineSession session(artifacts_[m], 1, {},
                                 deploy::make_backend(deploy::BackendKind::Scalar));
    ASSERT_EQ(info.sample_shape, session.sample_shape());
    ASSERT_EQ(info.num_classes, session.num_classes());
    EXPECT_EQ(info.version, 1);

    for (int i = 0; i < 4; ++i) {
      const tensor::Tensor sample =
          sample_tensor(info.sample_shape, 100 + 10 * m + static_cast<std::uint64_t>(i));
      const net::Client::InferResult remote = client.infer(kZoo[m].name, sample);
      ASSERT_TRUE(remote.admitted) << remote.reason;

      tensor::Shape batch_shape;
      batch_shape.push_back(1);
      batch_shape.insert(batch_shape.end(), info.sample_shape.begin(),
                         info.sample_shape.end());
      tensor::Tensor batch(batch_shape);
      std::memcpy(batch.data(), sample.data(), sample.numel() * sizeof(float));
      const tensor::Tensor local = session.run(batch);

      ASSERT_EQ(remote.logits.shape(), tensor::Shape({info.num_classes}));
      EXPECT_EQ(std::memcmp(remote.logits.data(), local.data(),
                            static_cast<std::size_t>(info.num_classes) * sizeof(float)),
                0)
          << kZoo[m].name << " sample " << i
          << ": remote logits differ from in-process EngineSession";
    }
  }
}

TEST_F(FrontEndTest, UnknownModelAnswersError) {
  net::Client client("localhost", front_->port());
  EXPECT_THROW(client.infer("no_such_model", sample_tensor({3, 8, 8}, 1)),
               net::RemoteError);
  // The connection survives a kError reply (it was not a framing
  // problem); the next request on the same connection still works.
  const net::Client::InferResult ok =
      client.infer("tiny_mlp", sample_tensor({12}, 2));
  EXPECT_TRUE(ok.admitted);
}

TEST_F(FrontEndTest, MidStreamDisconnectLeavesServerServing) {
  {
    // Send two thirds of a valid frame, then vanish.
    net::Socket raw = net::tcp_connect("localhost", front_->port());
    net::Frame frame;
    frame.type = net::FrameType::kInfer;
    frame.request_id = 9;
    frame.model = "tiny_mlp";
    frame.tensor = sample_tensor({12}, 3);
    const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
    raw.send_all(bytes.data(), bytes.size() * 2 / 3);
  }  // destructor closes mid-frame
  // The abandoned connection must not wedge or poison the front end.
  net::Client client("localhost", front_->port());
  const net::Client::InferResult ok = client.infer("tiny_mlp", sample_tensor({12}, 4));
  EXPECT_TRUE(ok.admitted);
}

TEST_F(FrontEndTest, GarbageStreamAnswersErrorAndCloses) {
  net::Socket raw = net::tcp_connect("localhost", front_->port());
  std::uint8_t garbage[64];
  util::Rng rng(99);
  for (std::uint8_t& b : garbage) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  garbage[0] = 0x10;  // plausible little-endian length, bad magic after
  garbage[1] = 0x00;
  garbage[2] = 0x00;
  garbage[3] = 0x00;
  raw.send_all(garbage, sizeof(garbage));

  // Exactly one kError reply, then EOF: the stream cannot be resynced.
  net::FrameDecoder decoder;
  net::Frame reply;
  ASSERT_TRUE(net::recv_frame(raw, decoder, reply));
  EXPECT_EQ(reply.type, net::FrameType::kError);
  EXPECT_FALSE(net::recv_frame(raw, decoder, reply));  // server closed
  EXPECT_GE(front_->stats().protocol_errors, 1u);

  // And the front end keeps serving everyone else.
  net::Client client("localhost", front_->port());
  EXPECT_TRUE(client.infer("tiny_mlp", sample_tensor({12}, 5)).admitted);
}

TEST_F(FrontEndTest, ReplyDirectionFrameFromClientIsRejected) {
  net::Socket raw = net::tcp_connect("localhost", front_->port());
  net::Frame frame;
  frame.type = net::FrameType::kResult;  // a client must never send this
  frame.request_id = 1;
  frame.tensor = sample_tensor({4}, 6);
  const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
  raw.send_all(bytes.data(), bytes.size());

  net::FrameDecoder decoder;
  net::Frame reply;
  ASSERT_TRUE(net::recv_frame(raw, decoder, reply));
  EXPECT_EQ(reply.type, net::FrameType::kError);
  EXPECT_FALSE(net::recv_frame(raw, decoder, reply));  // connection closed
}

// Pipelined overload against a deliberately tiny admission window must
// answer explicit kBusy for the overflow — never block the loop, never
// silently drop — while the admitted requests still complete correctly.
TEST(FrontEndOverload, PipelinedBurstShedsExplicitly) {
  serve::ModelRegistry registry;
  const deploy::QuantizedArtifact artifact = serve::tiny_mlp_artifact();
  serve::ModelConfig config;
  config.server.workers = 1;
  config.server.max_batch = 64;
  config.server.max_wait_us = 50000;  // hold the batch window open
  config.server.queue_capacity = 2;
  config.admit_queue_depth = 2;
  registry.load("m", artifact, config);
  net::FrontEndConfig net_config;
  net_config.port = 0;
  net::FrontEnd front(registry, net_config);

  net::Socket raw = net::tcp_connect("localhost", front.port());
  constexpr int kBurst = 16;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < kBurst; ++i) {
    net::Frame frame;
    frame.type = net::FrameType::kInfer;
    frame.request_id = static_cast<std::uint64_t>(i) + 1;
    frame.model = "m";
    frame.tensor = sample_tensor({12}, static_cast<std::uint64_t>(i));
    const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  raw.send_all(wire.data(), wire.size());

  int results = 0;
  int busy = 0;
  net::FrameDecoder decoder;
  for (int i = 0; i < kBurst; ++i) {
    net::Frame reply;
    ASSERT_TRUE(net::recv_frame(raw, decoder, reply)) << "reply " << i;
    if (reply.type == net::FrameType::kResult) {
      ++results;
    } else {
      ASSERT_EQ(reply.type, net::FrameType::kBusy);
      EXPECT_FALSE(reply.message.empty());
      ++busy;
    }
  }
  EXPECT_EQ(results + busy, kBurst);
  EXPECT_GT(results, 0);
  EXPECT_GT(busy, 0) << "a 16-deep burst into a 2-deep window must shed";
  EXPECT_EQ(front.stats().replies_busy, static_cast<std::size_t>(busy));
  EXPECT_GE(registry.info("m").requests_shed, static_cast<std::uint64_t>(busy));
  front.stop();
  const serve::ServerStats stats = registry.stats("m");
  EXPECT_EQ(stats.failed, 0u);
}

TEST(FrontEndLifecycle, StopDrainsInFlightRequests) {
  serve::ModelRegistry registry;
  const deploy::QuantizedArtifact artifact = serve::tiny_vgg_artifact();
  serve::ModelConfig config;
  config.server.workers = 1;
  config.server.max_wait_us = 20000;  // requests are in flight at stop()
  registry.load("m", artifact, config);
  net::FrontEndConfig net_config;
  net_config.port = 0;
  auto front = std::make_unique<net::FrontEnd>(registry, net_config);

  net::Socket raw = net::tcp_connect("localhost", front->port());
  std::vector<std::uint8_t> wire;
  constexpr int kInFlight = 4;
  for (int i = 0; i < kInFlight; ++i) {
    net::Frame frame;
    frame.type = net::FrameType::kInfer;
    frame.request_id = static_cast<std::uint64_t>(i) + 1;
    frame.model = "m";
    frame.tensor = sample_tensor({3, 8, 8}, static_cast<std::uint64_t>(i));
    const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  raw.send_all(wire.data(), wire.size());

  // Give the loop a moment to admit, then drain while they are queued
  // inside the 20 ms batch window.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  front->stop();

  // Every admitted request's reply must have been flushed before stop
  // returned; a shutdown must never strand an admitted request.
  net::FrameDecoder decoder;
  int answered = 0;
  net::Frame reply;
  while (net::recv_frame(raw, decoder, reply)) {
    EXPECT_TRUE(reply.type == net::FrameType::kResult ||
                reply.type == net::FrameType::kBusy);
    ++answered;
  }
  EXPECT_EQ(answered, kInFlight);
}

}  // namespace
}  // namespace cq
