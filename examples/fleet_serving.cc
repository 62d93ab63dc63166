// Fleet serving: one process monitoring MANY streams at once.
//
// A plant with dozens of sensors does not get one process per sensor —
// events from all of them arrive interleaved on one ingestion path. This
// example writes a small multi-stream corpus to CSV (stand-in for "files
// exported from the real corpora"), loads it back, merges the streams
// round-robin into a single event sequence, and replays it into a
// `serve::DetectorFleet`: hash-sharded workers, bounded queues with
// backpressure, and an LRU session cache that evicts cold detectors to an
// on-disk checkpoint store and rehydrates them on their next event.
//
// The punchline is the fleet's golden invariant, checked live at the end:
// the scores each stream produced inside the evicting, interleaved fleet
// are BIT-IDENTICAL to running that stream alone through `BuildDetector`
// + `Step` — serving is a deployment detail, not a modelling change.
//
// Flags (both optional):
//   --http-port=N       serve the live observability plane (/metrics,
//                       /healthz, /sessions) on 127.0.0.1:N
//   --linger-seconds=N  after the replay + golden check, keep the fleet
//                       and endpoints up for N seconds so you can curl
//                       them (see README "watch a running fleet")

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/algorithm_spec.h"
#include "src/data/csv.h"
#include "src/data/daphnet_like.h"
#include "src/net/http_server.h"
#include "src/obs/metrics.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/endpoints.h"
#include "src/serve/fleet.h"
#include "src/serve/replay.h"

int main(int argc, char** argv) {
  using namespace streamad;

  std::uint16_t http_port = 0;
  std::size_t linger_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--http-port=", 0) == 0) {
      http_port = static_cast<std::uint16_t>(
          std::strtoul(arg.c_str() + 12, nullptr, 10));
    } else if (arg.rfind("--linger-seconds=", 0) == 0) {
      linger_seconds = std::strtoul(arg.c_str() + 17, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--http-port=N] [--linger-seconds=N]\n",
                   argv[0]);
      return 1;
    }
  }

  // --- 1. A multi-stream corpus, round-tripped through CSV files. ---
  data::GeneratorConfig gen;
  gen.length = 2400;
  gen.num_series = 6;
  gen.normal_prefix = 800;
  gen.num_anomalies = 3;
  const data::Corpus corpus = data::MakeDaphnetLike(gen);

  // A directory of this process's own, so concurrent runs cannot clobber
  // each other's files; removed on every return path.
  std::string dir =
      (std::filesystem::temp_directory_path() / "streamad_fleet_XXXXXX")
          .string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_dir{dir};
  std::vector<data::LabeledSeries> streams;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < corpus.series.size(); ++i) {
    const std::string path = dir + "/stream" + std::to_string(i) + ".csv";
    if (!data::SaveCsv(corpus.series[i], path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    const auto loaded = data::LoadCsv(path);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "cannot read back %s\n", path.c_str());
      return 1;
    }
    streams.push_back(*loaded);
    ids.push_back("sensor-" + std::to_string(i));
  }
  std::printf("corpus: %zu streams x %zu steps (CSV round-trip via %s)\n",
              streams.size(), streams[0].length(), dir.c_str());

  // --- 2. The fleet: 3 shards, tight LRU cache, disk checkpoints. ---
  core::DetectorConfig detector_config;
  detector_config.window = 25;
  detector_config.train_capacity = 120;
  detector_config.initial_train_steps = 600;
  detector_config.scorer_k = 50;
  detector_config.scorer_k_short = 5;

  serve::DiskCheckpointStore store(dir + "/checkpoints");
  obs::MetricsRegistry registry;
  serve::FleetOptions options;
  options.shards = 3;
  options.store = &store;
  options.max_resident_per_shard = 2;  // 6 sessions -> constant churn
  options.metrics = &registry;
  // Quality plane: per-session score analytics behind /sessions/<id> and
  // /anomalies (the CI endpoint smoke scrapes both).
  options.session_analytics = true;
  options.watchdog_poll_ms = 200;   // live plane: stall detection on
  options.stall_window_ms = 2000;
  serve::DetectorFleet fleet(options);

  net::HttpServer server;
  if (http_port != 0) {
    serve::RegisterFleetEndpoints(&server, &fleet, &registry);
    const core::Status status = server.Start(http_port);
    if (!status.ok()) {
      std::fprintf(stderr, "http server: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf(
        "live plane up: curl -s http://127.0.0.1:%u/metrics (also /healthz, "
        "/sessions)\n",
        static_cast<unsigned>(server.port()));
  }

  std::mutex results_mutex;
  std::map<std::string, std::vector<serve::SessionStepResult>> by_stream;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    serve::SessionConfig session;
    session.spec = {core::ModelType::kNearestNeighbor,
                    core::Task1::kSlidingWindow, core::Task2::kMuSigma};
    session.score = core::ScoreType::kAnomalyLikelihood;
    session.detector = detector_config;
    session.seed = 40 + i;
    // Per-session recorders feed the shared registry: the /metrics scrape
    // then carries stage-level attribution (queue_wait next to the six
    // pipeline stages), not just the shard-level queue summaries.
    session.run.metrics = &registry;
    session.on_result = [&results_mutex, &by_stream](
                            const std::string& stream_id,
                            const serve::SessionStepResult& result) {
      std::lock_guard<std::mutex> lock(results_mutex);
      by_stream[stream_id].push_back(result);
    };
    const core::Status status = fleet.CreateSession(ids[i], session);
    if (!status.ok()) {
      std::fprintf(stderr, "CreateSession: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // --- 3. Replay the interleaved merge through the fleet. ---
  const std::vector<serve::StreamEvent> merged =
      serve::RoundRobinMerge(streams);
  const std::uint64_t throttles = serve::ReplayMerged(&fleet, ids, merged);
  fleet.WaitIdle();

  const serve::FleetStats stats = fleet.Stats();
  std::printf(
      "replayed %zu interleaved events: %llu processed, %llu throttle "
      "signals, %llu evictions, %llu rehydrations\n",
      merged.size(), static_cast<unsigned long long>(stats.processed),
      static_cast<unsigned long long>(throttles),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.rehydrations));

  // --- 4. Per-stream summary + the golden bit-identity spot check. ---
  bool identical = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto reference = core::BuildDetector(
        core::AlgorithmSpec{core::ModelType::kNearestNeighbor,
                            core::Task1::kSlidingWindow,
                            core::Task2::kMuSigma},
        core::ScoreType::kAnomalyLikelihood, detector_config, 40 + i);
    std::vector<serve::SessionStepResult> sequential;
    for (std::size_t t = 0; t < streams[i].length(); ++t) {
      const auto step = reference->Step(streams[i].At(t));
      if (step.scored) sequential.push_back({reference->t(), step});
    }
    const auto& fleet_results = by_stream[ids[i]];
    bool match = fleet_results.size() == sequential.size();
    double peak = 0.0;
    for (std::size_t r = 0; match && r < fleet_results.size(); ++r) {
      // NOLINT-STREAMAD-NEXTLINE(float-compare): bit-identity contract
      match = fleet_results[r].step.anomaly_score ==
              sequential[r].step.anomaly_score;
    }
    for (const auto& result : fleet_results) {
      if (result.step.anomaly_score > peak) peak = result.step.anomaly_score;
    }
    std::printf("  %-9s shard %zu: %5zu scores, peak %.3f, %s\n",
                ids[i].c_str(), fleet.ShardOf(ids[i]), fleet_results.size(),
                peak, match ? "bit-identical to solo run" : "MISMATCH");
    identical = identical && match;
  }
  std::printf(identical ? "\nfleet == sequential on every stream; the "
                          "serving layer added zero score drift\n"
                        : "\nBIT-IDENTITY VIOLATION\n");

  // --- 5. Optionally stay up so the endpoints can be scraped. ---
  if (linger_seconds > 0) {
    std::printf("lingering %zu s for scrapes (fleet idle, endpoints live)\n",
                linger_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_seconds));
  }
  server.Stop();
  fleet.Stop();
  return identical ? 0 : 1;
}
