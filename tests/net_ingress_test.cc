// End-to-end tests for the binary TCP ingress path: IngressServer +
// IngressService + IngressClient over a real loopback socket.
//
// The headline test is the network edition of the fleet's golden
// invariant: events streamed over TCP through EVENT_BATCH frames — into a
// fleet that forcibly evicts and rehydrates sessions through a checkpoint
// store — come back as SCORE_BATCH frames BIT-IDENTICAL to running each
// stream through its own sequential in-process detector. The rest pins the
// admission -> NACK mapping (every kThrottled / kDropped admission is
// observable as a typed protocol NACK), the HELLO handshake, protocol
// violations, and the /healthz ingress summary.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/algorithm_spec.h"
#include "src/core/detector.h"
#include "src/net/http_server.h"
#include "src/net/ingress_client.h"
#include "src/net/ingress_server.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/endpoints.h"
#include "src/serve/fleet.h"
#include "src/serve/ingress_service.h"
#include "src/serve/replay.h"

namespace streamad::serve {
namespace {

core::DetectorConfig FastConfig() {
  core::DetectorConfig config;
  config.window = 8;
  config.train_capacity = 30;
  config.initial_train_steps = 60;
  config.scorer_k = 15;
  config.scorer_k_short = 3;
  config.ae.fit_epochs = 4;
  config.kswin.check_every = 4;
  return config;
}

data::LabeledSeries MakeSeries(std::size_t stream, std::size_t length) {
  data::LabeledSeries series;
  series.name = "stream" + std::to_string(stream);
  series.values = linalg::Matrix(length, 3);
  series.labels.assign(length, 0);
  for (std::size_t t = 0; t < length; ++t) {
    const double drift = t >= 250 + 10 * stream ? 1.0 : 0.0;
    const bool spike = t >= 320 && t < 328;
    for (std::size_t c = 0; c < 3; ++c) {
      series.values(t, c) =
          drift +
          std::sin(0.2 * static_cast<double>(t) +
                   0.7 * static_cast<double>(stream) +
                   static_cast<double>(c)) +
          (spike ? 2.5 : 0.0);
    }
    series.labels[t] = spike ? 1 : 0;
  }
  return series;
}

/// Heterogeneous specs so eviction archives several component types.
SessionConfig ConfigFor(std::size_t stream) {
  SessionConfig config;
  config.detector = FastConfig();
  config.seed = 100 + stream;
  switch (stream % 3) {
    case 0:
      config.spec = {core::ModelType::kOnlineArima,
                     core::Task1::kSlidingWindow, core::Task2::kMuSigma};
      config.score = core::ScoreType::kAverage;
      break;
    case 1:
      config.spec = {core::ModelType::kNearestNeighbor,
                     core::Task1::kUniformReservoir, core::Task2::kKswin};
      config.score = core::ScoreType::kAnomalyLikelihood;
      break;
    default:
      config.spec = {core::ModelType::kTwoLayerAe,
                     core::Task1::kSlidingWindow, core::Task2::kMuSigma};
      config.score = core::ScoreType::kAverage;
      break;
  }
  return config;
}

/// The scores stream `stream` produces through a lone sequential detector.
std::vector<SessionStepResult> SequentialReference(
    std::size_t stream, const data::LabeledSeries& series) {
  const SessionConfig config = ConfigFor(stream);
  auto detector = core::BuildDetector(config.spec, config.score,
                                      config.detector, config.seed);
  std::vector<SessionStepResult> results;
  for (std::size_t t = 0; t < series.length(); ++t) {
    const auto step = detector->Step(series.At(t));
    if (step.scored) results.push_back({detector->t(), step});
  }
  return results;
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(NetIngressTest, ScoresOverTcpMatchSequentialBitIdentically) {
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kLength = 400;
  constexpr std::size_t kEventsPerBatch = 48;

  std::vector<data::LabeledSeries> streams;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kStreams; ++i) {
    streams.push_back(MakeSeries(i, kLength));
    ids.push_back("sensor-" + std::to_string(i));
  }

  // Acceptance-grid fleet: multi-session, multi-shard, eviction forced
  // through a checkpoint store every 25 events. The queue capacity is
  // large enough that nothing is ever dropped — a dropped event would be
  // legitimately absent from the score stream, which is a different
  // contract (tested below), not a golden run.
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 4;
  options.queue_capacity = 1 << 16;
  options.force_evict_every = 25;
  options.store = &store;
  DetectorFleet fleet(options);

  IngressService::Options service_options;
  IngressService service(&fleet, service_options);
  for (std::size_t i = 0; i < kStreams; ++i) {
    ASSERT_TRUE(service.CreateSession(ids[i], ConfigFor(i)).ok());
  }
  ASSERT_TRUE(service.Start(0).ok());

  net::IngressClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());
  EXPECT_EQ(client.server_ack().server, "streamad-ingress");

  // Interleave the streams round-robin and ship them in mixed batches.
  const std::vector<StreamEvent> merged = RoundRobinMerge(streams);
  std::size_t sent = 0;
  std::uint64_t batch_id = 0;
  std::map<std::string, std::vector<wire::ScoreEntry>> scores;
  std::size_t received = 0;
  while (sent < merged.size()) {
    wire::EventBatchFrame batch;
    batch.batch_id = ++batch_id;
    for (std::size_t k = 0; k < kEventsPerBatch && sent < merged.size();
         ++k, ++sent) {
      batch.events.push_back(
          wire::WireEvent{ids[merged[sent].stream], merged[sent].values});
    }
    ASSERT_TRUE(client.SendEventBatch(batch).ok());
    // Drain whatever already came back so neither side buffers unboundedly.
    wire::Frame frame;
    while (client.ReadFrame(&frame, /*timeout_ms=*/0).ok()) {
      ASSERT_NE(frame.type, wire::FrameType::kNack)
          << "golden run must not reject events";
      ASSERT_EQ(frame.type, wire::FrameType::kScoreBatch);
      for (auto& entry : std::get<wire::ScoreBatchFrame>(frame.payload)
                             .entries) {
        scores[entry.stream_id].push_back(entry);
        ++received;
      }
    }
  }

  fleet.WaitIdle();

  std::size_t expected = 0;
  std::vector<std::vector<SessionStepResult>> references;
  for (std::size_t i = 0; i < kStreams; ++i) {
    references.push_back(SequentialReference(i, streams[i]));
    expected += references.back().size();
  }
  ASSERT_GT(expected, 0u);

  while (received < expected) {
    wire::Frame frame;
    const core::Status status = client.ReadFrame(&frame, /*timeout_ms=*/5000);
    ASSERT_TRUE(status.ok()) << status.ToString() << " after " << received
                             << "/" << expected << " scores";
    ASSERT_EQ(frame.type, wire::FrameType::kScoreBatch);
    for (auto& entry :
         std::get<wire::ScoreBatchFrame>(frame.payload).entries) {
      scores[entry.stream_id].push_back(entry);
      ++received;
    }
  }
  EXPECT_EQ(received, expected);

  for (std::size_t i = 0; i < kStreams; ++i) {
    const auto& reference = references[i];
    const auto& got = scores[ids[i]];
    ASSERT_EQ(got.size(), reference.size()) << ids[i];
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].t, reference[k].t) << ids[i] << " entry " << k;
      ASSERT_NE(got[k].flags & wire::kScoreFlagScored, 0) << ids[i];
      EXPECT_EQ((got[k].flags & wire::kScoreFlagFinetuned) != 0,
                reference[k].step.finetuned)
          << ids[i] << " t=" << got[k].t;
      // Bit-identity across the network round-trip, not tolerance.
      ASSERT_TRUE(
          BitEqual(got[k].anomaly_score, reference[k].step.anomaly_score))
          << ids[i] << " t=" << got[k].t;
      ASSERT_TRUE(
          BitEqual(got[k].nonconformity, reference[k].step.nonconformity))
          << ids[i] << " t=" << got[k].t;
    }
  }

  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.evictions, 0u) << "the grid must exercise eviction";

  client.Close();
  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, ThrottledAndDroppedAdmissionsSurfaceAsNacks) {
  // A held shard with a 4-slot queue (watermark 2): of ten events, one is
  // quietly queued, three are queued-but-throttled, six are dropped — and
  // every non-kQueued admission must come back as a protocol NACK whose
  // census matches the fleet's own counters.
  obs::MetricsRegistry metrics;
  FleetOptions options;
  options.shards = 1;
  options.queue_capacity = 4;
  options.throttle_watermark = 2;
  options.metrics = &metrics;
  DetectorFleet fleet(options);

  IngressService::Options service_options;
  service_options.metrics = &metrics;
  IngressService service(&fleet, service_options);
  ASSERT_TRUE(service.CreateSession("sensor-0", ConfigFor(0)).ok());
  ASSERT_TRUE(service.Start(0).ok());

  fleet.HoldShardForTest(0, true);

  net::IngressClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());

  wire::EventBatchFrame batch;
  batch.batch_id = 9001;
  for (int k = 0; k < 10; ++k) {
    batch.events.push_back(wire::WireEvent{"sensor-0", {1.0, 2.0, 3.0}});
  }
  ASSERT_TRUE(client.SendEventBatch(batch).ok());

  wire::Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame).ok());
  ASSERT_EQ(frame.type, wire::FrameType::kNack);
  const auto& nack = std::get<wire::NackFrame>(frame.payload);
  EXPECT_EQ(nack.batch_id, 9001u);
  std::size_t throttled = 0;
  std::size_t dropped = 0;
  for (const auto& entry : nack.entries) {
    if (entry.code == wire::NackCode::kThrottled) ++throttled;
    if (entry.code == wire::NackCode::kDropped) ++dropped;
  }
  EXPECT_EQ(throttled, 3u);
  EXPECT_EQ(dropped, 6u);
  // NACK indexes address positions in the offending batch: the first
  // event fit below the watermark, then the queue filled.
  ASSERT_EQ(nack.entries.size(), 9u);
  EXPECT_EQ(nack.entries.front().index, 1u);
  EXPECT_EQ(nack.entries.back().index, 9u);

  // The protocol census agrees with the fleet's own admission counters
  // and with the /metrics NACK counters.
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.throttled, throttled);
  EXPECT_EQ(stats.dropped, dropped);
  EXPECT_EQ(metrics.GetCounter("streamad_ingress_nack_throttled_total")
                ->Value(),
            throttled);
  EXPECT_EQ(metrics.GetCounter("streamad_ingress_nack_dropped_total")->Value(),
            dropped);

  fleet.HoldShardForTest(0, false);
  fleet.WaitIdle();
  client.Close();
  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, BadEventsAreNackedWithoutClosingTheConnection) {
  // One batch carries a 3-wide stream with an unknown id, a 2-wide event
  // and an empty event mixed in. Each bad event is NACKed at its batch
  // index and never reaches the detector, which would abort on the
  // shape; the connection stays up and the scores that follow the NACK
  // are bit-identical to a sequential run.
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  IngressService service(&fleet);
  ASSERT_TRUE(service.CreateSession("known", ConfigFor(0)).ok());
  ASSERT_TRUE(service.Start(0).ok());

  net::IngressClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());

  const data::LabeledSeries series = MakeSeries(0, 120);
  wire::EventBatchFrame batch;
  batch.events.push_back(wire::WireEvent{"known", series.At(0)});
  batch.events.push_back(wire::WireEvent{"nope", {1.0, 1.0, 1.0}});
  batch.events.push_back(wire::WireEvent{"known", {1.0, 1.0}});
  batch.events.push_back(wire::WireEvent{"known", {}});
  for (std::size_t t = 1; t < series.length(); ++t) {
    batch.events.push_back(wire::WireEvent{"known", series.At(t)});
  }
  ASSERT_TRUE(client.SendEventBatch(batch).ok());

  wire::Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame).ok());
  ASSERT_EQ(frame.type, wire::FrameType::kNack);
  const auto& nack = std::get<wire::NackFrame>(frame.payload);
  ASSERT_EQ(nack.entries.size(), 3u);
  EXPECT_EQ(nack.entries[0].index, 1u);
  EXPECT_EQ(nack.entries[0].code, wire::NackCode::kUnknownStream);
  EXPECT_NE(nack.entries[0].detail.find("nope"), std::string::npos);
  for (std::uint32_t k = 1; k < 3; ++k) {
    EXPECT_EQ(nack.entries[k].index, k + 1);
    EXPECT_EQ(nack.entries[k].code, wire::NackCode::kMalformed);
  }

  const std::vector<SessionStepResult> reference =
      SequentialReference(0, series);
  std::size_t k = 0;
  while (k < reference.size()) {
    ASSERT_TRUE(client.ReadFrame(&frame, /*timeout_ms=*/5000).ok());
    ASSERT_EQ(frame.type, wire::FrameType::kScoreBatch);
    for (const auto& entry :
         std::get<wire::ScoreBatchFrame>(frame.payload).entries) {
      ASSERT_LT(k, reference.size());
      EXPECT_EQ(entry.t, reference[k].t);
      EXPECT_TRUE(BitEqual(entry.anomaly_score,
                           reference[k++].step.anomaly_score));
    }
  }

  client.Close();
  service.Stop();
  fleet.Stop();
}

/// Raw-socket helper for protocol-violation tests the client class cannot
/// express (it always speaks the protocol correctly).
int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Sends `bytes`, then reads until the server closes, expecting exactly
/// one NACK frame back whose first entry carries `expected`.
void ExpectNackAndClose(int fd, const std::string& bytes,
                        wire::NackCode expected) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  wire::FrameAssembler assembler;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    assembler.Append(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
  EXPECT_EQ(n, 0) << "server should close after a protocol error";
  ::close(fd);
  wire::Frame frame;
  ASSERT_EQ(assembler.Next(&frame), wire::FrameAssembler::Result::kFrame);
  ASSERT_EQ(frame.type, wire::FrameType::kNack);
  const auto& nack = std::get<wire::NackFrame>(frame.payload);
  ASSERT_EQ(nack.entries.size(), 1u);
  EXPECT_EQ(nack.entries[0].code, expected);
  EXPECT_FALSE(nack.entries[0].detail.empty());
}

TEST(NetIngressTest, EventBatchBeforeHelloIsAProtocolViolation) {
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  IngressService service(&fleet);
  ASSERT_TRUE(service.Start(0).ok());

  const int fd = RawConnect(service.port());
  std::string bytes;
  wire::EventBatchFrame batch;
  batch.events.push_back(wire::WireEvent{"sensor-0", {1.0}});
  wire::AppendEventBatch(&bytes, batch);
  ExpectNackAndClose(fd, bytes, wire::NackCode::kProtocolViolation);

  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, UnsupportedWireVersionIsNackedWithDiagnostic) {
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  IngressService service(&fleet);
  ASSERT_TRUE(service.Start(0).ok());

  const int fd = RawConnect(service.port());
  // A frame stamped with a future wire version: the assembler flags
  // kBadVersion, which the server maps to an UNSUPPORTED_VERSION NACK.
  std::string bytes;
  wire::AppendFrameRaw(&bytes, wire::kWireMagic, wire::kWireVersion + 1,
                       static_cast<std::uint8_t>(wire::FrameType::kHello),
                       "");
  ExpectNackAndClose(fd, bytes, wire::NackCode::kUnsupportedVersion);

  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, GarbageBytesAreNackedAsMalformed) {
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  IngressService service(&fleet);
  ASSERT_TRUE(service.Start(0).ok());

  const int fd = RawConnect(service.port());
  ExpectNackAndClose(fd, "this is not the wire protocol at all",
                     wire::NackCode::kMalformed);

  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, HealthzReportsIngressConnections) {
  obs::MetricsRegistry metrics;
  FleetOptions options;
  options.shards = 1;
  options.metrics = &metrics;
  DetectorFleet fleet(options);

  IngressService::Options service_options;
  service_options.metrics = &metrics;
  IngressService service(&fleet, service_options);
  ASSERT_TRUE(service.CreateSession("sensor-0", ConfigFor(0)).ok());
  ASSERT_TRUE(service.Start(0).ok());

  net::HttpServer http;
  RegisterFleetEndpoints(&http, &fleet, &metrics, &service.server());
  ASSERT_TRUE(http.Start(0).ok());

  net::IngressClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());
  // The server loop counts the connection as soon as it accepts; the
  // completed HELLO round-trip above guarantees that happened.

  // Minimal HTTP GET against /healthz.
  const int fd = RawConnect(http.port());
  const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  EXPECT_NE(response.find("\"ingress\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"active_connections\":1"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"connections_total\":1"), std::string::npos)
      << response;

  client.Close();
  http.Stop();
  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, MassNacksAreChunkedAcrossFrames) {
  // A batch whose every event is rejected must come back as SEVERAL NACK
  // frames (4096 entries each), not one — an unchunked reply for a large
  // batch would breach the 16 MiB frame payload cap and kill the server.
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  IngressService service(&fleet);  // no sessions: everything is unknown
  ASSERT_TRUE(service.Start(0).ok());

  net::IngressClient client;
  ASSERT_TRUE(client.Connect(service.port()).ok());

  constexpr std::size_t kEvents = 10000;
  wire::EventBatchFrame batch;
  batch.batch_id = 31337;
  batch.events.reserve(kEvents);
  for (std::size_t k = 0; k < kEvents; ++k) {
    batch.events.push_back(wire::WireEvent{"ghost", {1.0}});
  }
  ASSERT_TRUE(client.SendEventBatch(batch).ok());

  std::size_t frames = 0;
  std::size_t entries = 0;
  std::uint32_t expected_index = 0;
  while (entries < kEvents) {
    wire::Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame).ok());
    ASSERT_EQ(frame.type, wire::FrameType::kNack);
    const auto& nack = std::get<wire::NackFrame>(frame.payload);
    EXPECT_EQ(nack.batch_id, 31337u);
    ASSERT_LE(nack.entries.size(), 4096u);
    for (const auto& entry : nack.entries) {
      EXPECT_EQ(entry.code, wire::NackCode::kUnknownStream);
      EXPECT_EQ(entry.index, expected_index++);
    }
    entries += nack.entries.size();
    ++frames;
  }
  EXPECT_EQ(entries, kEvents);
  EXPECT_EQ(frames, 3u);  // ceil(10000 / 4096)

  // A mass NACK is not a protocol error: the connection is still usable.
  ASSERT_TRUE(client.SendHealthProbe().ok());
  wire::Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame).ok());
  EXPECT_EQ(frame.type, wire::FrameType::kHealth);

  client.Close();
  service.Stop();
  fleet.Stop();
}

TEST(NetIngressTest, ResultsDeliveredAfterServiceDestructionAreDiscarded) {
  // The session result callbacks live inside the fleet and cannot be
  // unregistered, so they must not dangle: destroy the service while a
  // held shard still has queued events, then let the shard drain. Under
  // ASan/TSan this is the regression test for the old capture of `this`.
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);

  constexpr std::size_t kEvents = 100;
  {
    IngressService service(&fleet);
    ASSERT_TRUE(service.CreateSession("sensor-0", ConfigFor(0)).ok());
    ASSERT_TRUE(service.Start(0).ok());

    fleet.HoldShardForTest(0, true);

    net::IngressClient client;
    ASSERT_TRUE(client.Connect(service.port()).ok());
    wire::EventBatchFrame batch;
    for (std::size_t k = 0; k < kEvents; ++k) {
      batch.events.push_back(wire::WireEvent{"sensor-0", {1.0, 2.0, 3.0}});
    }
    ASSERT_TRUE(client.SendEventBatch(batch).ok());
    // Destroy the service only once it has admitted the whole batch onto
    // the held shard: otherwise some events never reach the fleet and the
    // late deliveries this test is about do not all happen.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (fleet.Stats().submitted < kEvents) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "batch never admitted";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.Close();
  }  // ~IngressService with every event still parked on the held shard

  fleet.HoldShardForTest(0, false);
  fleet.WaitIdle();
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.processed, kEvents);
  EXPECT_EQ(stats.dropped, 0u);
  fleet.Stop();
}

TEST(NetIngressTest, SlowReaderIsDisconnectedWhenOutbufOverflows) {
  // A peer that submits but never reads must not grow the server's write
  // buffer without bound: past Options::max_outbuf_bytes the connection
  // is condemned. Exercised at the IngressServer layer with a tiny cap
  // and a hook whose reply is guaranteed to overflow it.
  obs::MetricsRegistry metrics;
  net::IngressServer::Options options;
  options.max_outbuf_bytes = 1024;
  options.metrics = &metrics;
  net::IngressServer server(options);
  net::IngressServer::Hooks hooks;
  hooks.on_event_batch = [](net::IngressServer::ConnectionId,
                            const wire::EventBatchFrame& batch) {
    wire::NackFrame nack;
    nack.batch_id = batch.batch_id;
    nack.entries.push_back(wire::NackEntry{0, wire::NackCode::kDropped,
                                           std::string(4096, 'x')});
    std::string bytes;
    wire::AppendNack(&bytes, nack);
    return bytes;
  };
  server.set_hooks(std::move(hooks));
  ASSERT_TRUE(server.Start(0).ok());

  net::IngressClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  wire::EventBatchFrame batch;
  batch.events.push_back(wire::WireEvent{"sensor-0", {1.0}});
  ASSERT_TRUE(client.SendEventBatch(batch).ok());

  // The 4 KiB reply crosses the 1 KiB cap, so the server closes instead
  // of buffering; the client observes the close (kIoError), never the
  // oversized reply.
  wire::Frame frame;
  core::Status status = client.ReadFrame(&frame);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(
      metrics.GetCounter("streamad_ingress_overflow_disconnects_total")
          ->Value(),
      1u);

  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace streamad::serve
