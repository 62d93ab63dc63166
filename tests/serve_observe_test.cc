// Live-plane contract tests for the fleet: end-to-end queue-wait
// attribution (every processed event lands in the shard and stage
// `queue_wait` summaries), the stall watchdog (detects a wedged shard,
// degrades fleet health, recovers, and dumps flight recorders), the
// quality plane (per-session analytics surviving eviction, /anomalies
// top-K ranking true to the injected anomaly density), and the golden
// bit-identity invariant with the full observability plane on.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/algorithm_spec.h"
#include "src/core/detector.h"
#include "src/net/http_server.h"
#include "src/obs/metrics.h"
#include "src/obs/quantile_sketch.h"
#include "src/obs/recorder.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/endpoints.h"
#include "src/serve/fleet.h"

namespace streamad::serve {
namespace {

core::DetectorConfig FastConfig() {
  core::DetectorConfig config;
  config.window = 8;
  config.train_capacity = 30;
  config.initial_train_steps = 40;
  config.scorer_k = 10;
  config.scorer_k_short = 3;
  return config;
}

SessionConfig TimedSession(std::size_t stream, obs::MetricsRegistry* metrics) {
  SessionConfig config;
  config.spec = {core::ModelType::kOnlineArima, core::Task1::kSlidingWindow,
                 core::Task2::kMuSigma};
  config.score = core::ScoreType::kAverage;
  config.detector = FastConfig();
  config.seed = 100 + stream;
  config.run.metrics = metrics;
  return config;
}

core::StreamVector EventAt(std::size_t t) {
  core::StreamVector v(3);
  for (std::size_t c = 0; c < 3; ++c) {
    v[c] = std::sin(0.1 * static_cast<double>(t) + static_cast<double>(c));
  }
  return v;
}

/// Polls `condition` every few ms until it holds or ~5 s pass.
bool EventuallyTrue(const std::function<bool()>& condition) {
  for (int i = 0; i < 1000; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return condition();
}

/// Minimal loopback GET; returns the HTTP status and fills `body`.
int HttpGet(std::uint16_t port, const std::string& target,
            std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string raw;
  char buffer[2048];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t status_at = raw.find(' ');
  const std::size_t body_at = raw.find("\r\n\r\n");
  if (status_at == std::string::npos || body_at == std::string::npos) {
    return -1;
  }
  *body = raw.substr(body_at + 4);
  return std::atoi(raw.c_str() + status_at + 1);
}

TEST(QueueWaitAttributionTest, EveryProcessedEventLandsInTheWaitSummaries) {
  obs::MetricsRegistry registry;
  FleetOptions options;
  options.shards = 2;
  options.metrics = &registry;
  // Full-rate attribution: every event stamped, so the summary counts
  // below must match the processed totals exactly.
  options.timing_sample_every = 1;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("alpha", TimedSession(0, &registry)).ok());
  ASSERT_TRUE(fleet.CreateSession("beta", TimedSession(1, &registry)).ok());

  constexpr std::size_t kEvents = 150;
  for (std::size_t t = 0; t < kEvents; ++t) {
    ASSERT_NE(fleet.Submit("alpha", EventAt(t)), Admission::kDropped);
    ASSERT_NE(fleet.Submit("beta", EventAt(t)), Admission::kDropped);
  }
  fleet.WaitIdle();
  const FleetStats stats = fleet.Stats();
  ASSERT_EQ(stats.processed, 2 * kEvents);

  // Shard-level attribution: one queue-wait observation per dequeue,
  // split across the two shard summaries.
  std::uint64_t shard_wait_count = 0;
  for (std::size_t i = 0; i < options.shards; ++i) {
    const std::string name = "streamad_serve_shard" + std::to_string(i) +
                             "_queue_wait_ns_summary";
    shard_wait_count += registry.GetSketch(name)->Snap().count;
  }
  EXPECT_EQ(shard_wait_count, stats.processed);

  // Stage-level attribution: both session recorders feed the shared
  // `queue_wait` stage instruments, one observation per healthy step.
  EXPECT_EQ(
      registry.GetSketch("streamad_stage_queue_wait_ns_summary")->Snap().count,
      stats.processed);

  // The stage appears in the exposition next to the six pipeline stages.
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("streamad_stage_queue_wait_ns_count"),
            std::string::npos);
  EXPECT_NE(text.find("streamad_stage_queue_wait_ns_summary{quantile"),
            std::string::npos);

  fleet.Stop();
}

TEST(QueueWaitAttributionTest, DefaultSamplingTimesOneEventInNExactly) {
  obs::MetricsRegistry registry;
  FleetOptions options;
  options.shards = 1;
  options.metrics = &registry;
  DetectorFleet fleet(options);
  ASSERT_EQ(options.timing_sample_every, 16u);
  ASSERT_TRUE(fleet.CreateSession("solo", TimedSession(0, &registry)).ok());

  // One shard, one session, no drops: the shard's submit sequence runs
  // 0..159, so exactly ceil(160 / 16) = 10 events are stamped.
  constexpr std::size_t kEvents = 160;
  for (std::size_t t = 0; t < kEvents; ++t) {
    ASSERT_NE(fleet.Submit("solo", EventAt(t)), Admission::kDropped);
  }
  fleet.WaitIdle();

  // Event accounting stays exact; only the latency summaries sample.
  EXPECT_EQ(fleet.Stats().processed, kEvents);
  EXPECT_EQ(
      registry.GetSketch("streamad_serve_shard0_queue_wait_ns_summary")
          ->Snap()
          .count,
      kEvents / 16);
  EXPECT_EQ(
      registry.GetSketch("streamad_serve_shard0_step_ns_summary")
          ->Snap()
          .count,
      kEvents / 16);

  fleet.Stop();
}

TEST(WatchdogTest, FlagsAWedgedShardAndRecoversAfterRelease) {
  obs::MetricsRegistry registry;
  FleetOptions options;
  options.shards = 1;
  options.metrics = &registry;
  options.watchdog_poll_ms = 10;
  options.stall_window_ms = 50;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("wedged", TimedSession(0, &registry)).ok());

  // Healthy while processing normally.
  for (std::size_t t = 0; t < 20; ++t) fleet.Submit("wedged", EventAt(t));
  fleet.WaitIdle();
  EXPECT_TRUE(fleet.healthy());

  // Park the worker, then pile up events it cannot drain.
  fleet.HoldShardForTest(0, true);
  for (std::size_t t = 0; t < 16; ++t) fleet.Submit("wedged", EventAt(t));

  ASSERT_TRUE(EventuallyTrue([&fleet] {
    return fleet.SnapshotShards()[0].stalled;
  })) << "watchdog never flagged the wedged shard";
  EXPECT_FALSE(fleet.healthy());
  EXPECT_TRUE(EventuallyTrue([&registry] {
    return registry.GetGauge("streamad_serve_stalled_shards")->Value() == 1.0;
  }));
  EXPECT_EQ(registry.GetGauge("streamad_serve_shard0_stalled")->Value(), 1.0);
  EXPECT_GE(registry.GetCounter("streamad_serve_shard_stalls_total")->Value(),
            1u);

  // Release: the backlog drains and the watchdog clears the stall.
  fleet.HoldShardForTest(0, false);
  fleet.WaitIdle();
  ASSERT_TRUE(EventuallyTrue([&fleet] {
    return !fleet.SnapshotShards()[0].stalled;
  })) << "stall never cleared after release";
  EXPECT_TRUE(fleet.healthy());
  EXPECT_TRUE(EventuallyTrue([&registry] {
    return registry.GetGauge("streamad_serve_stalled_shards")->Value() == 0.0;
  }));

  fleet.Stop();
}

TEST(WatchdogTest, StallTransitionDumpsSessionFlightRecorders) {
  const std::string dir = "/tmp/streamad_stall_dump_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  obs::MetricsRegistry registry;
  FleetOptions options;
  options.shards = 1;
  options.metrics = &registry;
  options.watchdog_poll_ms = 10;
  options.stall_window_ms = 50;
  DetectorFleet fleet(options);

  SessionConfig config = TimedSession(0, &registry);
  config.run.flight_capacity = 16;
  config.run.flight_dump_dir = dir;
  ASSERT_TRUE(fleet.CreateSession("blackbox", config).ok());

  // Populate the flight ring, then wedge the shard with a backlog.
  for (std::size_t t = 0; t < 30; ++t) fleet.Submit("blackbox", EventAt(t));
  fleet.WaitIdle();
  fleet.HoldShardForTest(0, true);
  for (std::size_t t = 0; t < 8; ++t) fleet.Submit("blackbox", EventAt(t));
  ASSERT_TRUE(EventuallyTrue([&fleet] {
    return fleet.SnapshotShards()[0].stalled;
  }));

  // The transition dumped this session's ring with the stall reason
  // (label defaults to the stream id, so the path is deterministic).
  const std::string path = dir + "/flight_blackbox.jsonl";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing stall dump " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"reason\":\"shard_stall\""),
            std::string::npos)
      << buffer.str().substr(0, 200);
  EXPECT_NE(buffer.str().find("\"flight\":\"step\""), std::string::npos);

  fleet.HoldShardForTest(0, false);
  fleet.WaitIdle();
  fleet.Stop();
  std::filesystem::remove_all(dir);
}

// --- quality plane --------------------------------------------------------

TEST(AnomalyTopKTest, RankingMatchesInjectedAnomalyDensityEndToEnd) {
  // Three streams share a smooth base signal; two get +8 spikes injected
  // at different densities after the training prefix. With a fixed
  // absolute score threshold the per-session anomaly rates must rank
  // dense > sparse > clean, and /anomalies?k=2 must return exactly the
  // two spiky streams, densest first — while LRU eviction churns the
  // detectors underneath the analytics.
  constexpr std::size_t kLength = 400;
  const struct {
    const char* id;
    std::size_t period;  // inject a spike every N steps (0 = never)
  } kStreams[] = {{"dense", 8}, {"sparse", 30}, {"clean", 0}};

  obs::MetricsRegistry registry;
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 2;
  options.metrics = &registry;
  options.store = &store;
  options.force_evict_every = 35;  // analytics must outlive the detector
  options.session_analytics = true;
  options.analytics.use_absolute_threshold = true;
  // Calibrated against this detector config: the clean stream's average
  // score peaks near 0.003, spike-contaminated stretches run far above.
  options.analytics.absolute_threshold = 0.05;
  DetectorFleet fleet(options);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fleet.CreateSession(kStreams[i].id, TimedSession(i, &registry)).ok());
  }

  net::HttpServer server;
  RegisterFleetEndpoints(&server, &fleet, &registry);
  ASSERT_TRUE(server.Start(0).ok());

  for (std::size_t t = 0; t < kLength; ++t) {
    for (const auto& stream : kStreams) {
      const bool spike =
          stream.period > 0 && t >= 60 && t % stream.period == 0;
      core::StreamVector v(3);
      for (std::size_t c = 0; c < 3; ++c) {
        v[c] = std::sin(0.1 * static_cast<double>(t) +
                        static_cast<double>(c)) +
               (spike ? 8.0 : 0.0);
      }
      while (fleet.Submit(stream.id, v) == Admission::kDropped) {
        std::this_thread::yield();
      }
    }
  }
  fleet.WaitIdle();
  EXPECT_GT(fleet.Stats().evictions, 0u);

  // In-process ranking first: rates ordered by injected density.
  std::map<std::string, obs::ScoreAnalyticsSnapshot> by_id;
  for (const SessionQuality& row : fleet.SnapshotQuality()) {
    by_id[row.id] = row.analytics;
  }
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_GT(by_id["dense"].anomaly_rate, by_id["sparse"].anomaly_rate);
  EXPECT_GT(by_id["sparse"].anomaly_rate, by_id["clean"].anomaly_rate);
  EXPECT_DOUBLE_EQ(by_id["clean"].anomaly_rate, 0.0);
  EXPECT_EQ(by_id["clean"].anomalies, 0u);
  EXPECT_GT(by_id["dense"].anomalies, by_id["sparse"].anomalies);
  // Eviction did not reset the quality state: every session's analytics
  // span the entire replay, not just its latest residency.
  for (const auto& [id, snap] : by_id) {
    EXPECT_EQ(snap.steps, kLength) << id;
    EXPECT_EQ(snap.scored_steps, by_id["clean"].scored_steps) << id;
    EXPECT_GT(snap.scored_steps, 300u) << id;
  }

  // Per-session detail carries the anomaly log; every retained crossing
  // exceeded the configured threshold.
  SessionDetail detail;
  ASSERT_TRUE(fleet.SnapshotSession("dense", &detail));
  ASSERT_TRUE(detail.has_analytics);
  ASSERT_FALSE(detail.analytics.recent_anomalies.empty());
  for (const obs::AnomalyLogEntry& entry :
       detail.analytics.recent_anomalies) {
    EXPECT_GT(entry.score, 0.05);
    EXPECT_DOUBLE_EQ(entry.threshold, 0.05);
  }
  EXPECT_FALSE(fleet.SnapshotSession("missing", &detail));

  // The same ranking over HTTP: k=2 keeps dense then sparse, drops clean.
  std::string body;
  ASSERT_EQ(HttpGet(server.port(), "/anomalies?k=2", &body), 200);
  const std::size_t dense_at = body.find("\"id\":\"dense\"");
  const std::size_t sparse_at = body.find("\"id\":\"sparse\"");
  ASSERT_NE(dense_at, std::string::npos) << body;
  ASSERT_NE(sparse_at, std::string::npos) << body;
  EXPECT_LT(dense_at, sparse_at);
  EXPECT_EQ(body.find("\"id\":\"clean\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"total_sessions\":3"), std::string::npos) << body;

  // The fleet-level /metrics aggregates reflect the worst session without
  // naming it (cardinality policy: per-session detail stays on JSON).
  ASSERT_EQ(HttpGet(server.port(), "/metrics", &body), 200);
  EXPECT_NE(body.find("streamad_serve_analytics_sessions 3"),
            std::string::npos);
  EXPECT_NE(body.find("streamad_serve_max_session_anomaly_rate"),
            std::string::npos);

  server.Stop();
  fleet.Stop();
}

/// Every field of a snapshot, in a fixed order, doubles as raw bits.
std::vector<std::uint64_t> SnapshotBits(const obs::ScoreAnalyticsSnapshot& s) {
  const obs::QuantileSketch::Snapshot& q = s.score_quantiles;
  std::vector<double> doubles = {s.anomaly_rate,   s.ewma_mean,
                                 s.ewma_std,       s.last_score,
                                 s.last_threshold, s.drift_statistic,
                                 q.sum,            q.min,
                                 q.max};
  doubles.insert(doubles.end(), q.values.begin(), q.values.end());
  std::vector<std::uint64_t> bits = {
      s.steps, s.scored_steps, s.finetunes, s.anomalies, s.train_size,
      static_cast<std::uint64_t>(s.last_step_t), q.count};
  for (const obs::AnomalyLogEntry& e : s.recent_anomalies) {
    bits.push_back(static_cast<std::uint64_t>(e.t));
    doubles.insert(doubles.end(), {e.score, e.threshold, e.input_min,
                                   e.input_max, e.input_mean});
  }
  for (const double d : doubles) {
    bits.push_back(std::bit_cast<std::uint64_t>(d));
  }
  return bits;
}

TEST(AnalyticsFeedTest, FleetFedAndRecorderOwnedAnalyticsAgreeBitForBit) {
  // The fleet feeds its session analytics from the observation `Step`
  // writes out; a recorder feeds its own from `EndStep`. One series run
  // both ways must leave identical snapshots, anomaly-log digests included.
  constexpr std::size_t kLength = 300;
  obs::ScoreAnalyticsOptions analytics;
  analytics.score_sample_every = 1;
  const auto event = [](std::size_t t) {
    core::StreamVector v = EventAt(t);
    if (t >= 60 && t % 17 == 0) v[t % 3] += 6.0;
    return v;
  };
  const SessionConfig config = TimedSession(0, nullptr);

  FleetOptions options;
  options.shards = 1;
  options.session_analytics = true;
  options.analytics = analytics;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("feed", config).ok());
  for (std::size_t t = 0; t < kLength; ++t) {
    while (fleet.Submit("feed", event(t)) == Admission::kDropped) {
      std::this_thread::yield();
    }
  }
  fleet.WaitIdle();
  SessionDetail detail;
  ASSERT_TRUE(fleet.SnapshotSession("feed", &detail));
  ASSERT_TRUE(detail.has_analytics);
  fleet.Stop();

  obs::MetricsRegistry registry;
  obs::RecorderOptions recorder_options;
  recorder_options.score_analytics = true;
  recorder_options.analytics = analytics;
  obs::Recorder recorder(&registry, recorder_options);
  auto detector = core::BuildDetector(config.spec, config.score,
                                      config.detector, config.seed);
  detector->set_recorder(&recorder);
  for (std::size_t t = 0; t < kLength; ++t) detector->Step(event(t));
  const obs::ScoreAnalyticsSnapshot owned = recorder.score_analytics()->Snap();

  // The spikes must cross the threshold, or the log comparison is vacuous.
  EXPECT_GT(owned.anomalies, 0u);
  ASSERT_EQ(detail.analytics.recent_anomalies.size(),
            owned.recent_anomalies.size());
  EXPECT_EQ(SnapshotBits(detail.analytics), SnapshotBits(owned));
}

TEST(ObservedFleetGoldenTest, BitIdentityHoldsWithWatchdogAndAttributionOn) {
  // The PR's acceptance invariant: metrics, queue-wait attribution, the
  // watchdog, per-session score analytics, AND forced eviction churn
  // together must not move a single score bit relative to bare
  // sequential detectors.
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kLength = 300;

  obs::MetricsRegistry registry;
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 2;
  options.metrics = &registry;
  options.watchdog_poll_ms = 20;
  options.stall_window_ms = 500;
  options.store = &store;
  options.force_evict_every = 35;
  options.session_analytics = true;
  DetectorFleet fleet(options);

  std::mutex mutex;
  std::map<std::string, std::vector<double>> scores;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kStreams; ++i) {
    ids.push_back("gold-" + std::to_string(i));
    SessionConfig config = TimedSession(i, &registry);
    config.on_result = [&mutex, &scores](const std::string& id,
                                         const SessionStepResult& result) {
      std::lock_guard<std::mutex> lock(mutex);
      scores[id].push_back(result.step.anomaly_score);
    };
    ASSERT_TRUE(fleet.CreateSession(ids.back(), config).ok());
  }

  for (std::size_t t = 0; t < kLength; ++t) {
    for (std::size_t i = 0; i < kStreams; ++i) {
      core::StreamVector v(3);
      for (std::size_t c = 0; c < 3; ++c) {
        v[c] = std::sin(0.2 * static_cast<double>(t) +
                        0.7 * static_cast<double>(i) +
                        static_cast<double>(c));
      }
      while (fleet.Submit(ids[i], v) == Admission::kDropped) {
        std::this_thread::yield();
      }
    }
  }
  fleet.WaitIdle();
  EXPECT_GT(fleet.Stats().evictions, 0u);

  for (std::size_t i = 0; i < kStreams; ++i) {
    const SessionConfig config = TimedSession(i, nullptr);
    auto reference = core::BuildDetector(config.spec, config.score,
                                         config.detector, config.seed);
    std::vector<double> sequential;
    for (std::size_t t = 0; t < kLength; ++t) {
      core::StreamVector v(3);
      for (std::size_t c = 0; c < 3; ++c) {
        v[c] = std::sin(0.2 * static_cast<double>(t) +
                        0.7 * static_cast<double>(i) +
                        static_cast<double>(c));
      }
      const auto step = reference->Step(v);
      if (step.scored) sequential.push_back(step.anomaly_score);
    }
    const std::vector<double>& observed = scores[ids[i]];
    ASSERT_EQ(observed.size(), sequential.size()) << ids[i];
    for (std::size_t s = 0; s < observed.size(); ++s) {
      ASSERT_EQ(observed[s], sequential[s]) << ids[i] << " score " << s;
    }
  }
  fleet.Stop();
}

}  // namespace
}  // namespace streamad::serve
