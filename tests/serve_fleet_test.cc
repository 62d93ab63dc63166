// The serving layer's contract tests. The headline invariant is golden:
// an interleaved multi-stream fleet run — including one that forcibly
// evicts and rehydrates sessions through a checkpoint store every few
// events — produces BIT-IDENTICAL scores to running each stream through
// its own sequential detector. The rest pins the backpressure state
// machine, per-session ordering, the poll ring, and session health.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/algorithm_spec.h"
#include "src/core/detector.h"
#include "src/obs/metrics.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/fleet.h"
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

/// Per-stream signal: phase-shifted sines with a drift and a spike, so
/// streams differ, fine-tunes trigger, and scores are non-trivial.
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

/// A small spread of cheap specs so the fleet hosts heterogeneous
/// sessions (the eviction path exercises several component archives).
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

/// Sequential reference: the scores stream `stream` would produce alone.
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

void ExpectBitIdentical(const std::vector<SessionStepResult>& fleet,
                        const std::vector<SessionStepResult>& reference,
                        const std::string& id) {
  ASSERT_EQ(fleet.size(), reference.size()) << id;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ASSERT_EQ(fleet[i].t, reference[i].t) << id << " result " << i;
    // Bit-identity, not tolerance: EQ on doubles is deliberate.
    ASSERT_EQ(fleet[i].step.anomaly_score, reference[i].step.anomaly_score)
        << id << " t=" << fleet[i].t;
    ASSERT_EQ(fleet[i].step.nonconformity, reference[i].step.nonconformity)
        << id << " t=" << fleet[i].t;
    ASSERT_EQ(fleet[i].step.finetuned, reference[i].step.finetuned)
        << id << " t=" << fleet[i].t;
  }
}

struct CollectedResults {
  std::mutex mutex;
  std::map<std::string, std::vector<SessionStepResult>> by_stream;
};

/// Runs the golden scenario: 8 interleaved streams over `shards` shards
/// with the given fleet options, then compares every stream against its
/// sequential reference.
void RunGoldenScenario(FleetOptions options, std::size_t length) {
  constexpr std::size_t kStreams = 8;
  std::vector<data::LabeledSeries> streams;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kStreams; ++i) {
    streams.push_back(MakeSeries(i, length));
    ids.push_back("sensor-" + std::to_string(i));
  }

  CollectedResults collected;
  DetectorFleet fleet(options);
  for (std::size_t i = 0; i < kStreams; ++i) {
    SessionConfig config = ConfigFor(i);
    const std::string id = ids[i];
    config.on_result = [&collected, id](const std::string& stream_id,
                                        const SessionStepResult& result) {
      ASSERT_EQ(stream_id, id);
      std::lock_guard<std::mutex> lock(collected.mutex);
      collected.by_stream[id].push_back(result);
    };
    ASSERT_TRUE(fleet.CreateSession(id, config).ok());
  }

  const std::vector<StreamEvent> merged = RoundRobinMerge(streams);
  ReplayMerged(&fleet, ids, merged);
  fleet.WaitIdle();
  fleet.Stop();

  // Every event was processed exactly once: drops only ever happen on
  // rejected Submit attempts, which ReplayMerged retries.
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.processed, merged.size());
  for (std::size_t i = 0; i < kStreams; ++i) {
    EXPECT_TRUE(fleet.SessionHealth(ids[i]).ok());
    ExpectBitIdentical(collected.by_stream[ids[i]],
                       SequentialReference(i, streams[i]), ids[i]);
  }
}

TEST(ServeFleetTest, InterleavedMatchesSequentialBitIdentically) {
  FleetOptions options;
  options.shards = 4;
  RunGoldenScenario(options, /*length=*/400);
}

TEST(ServeFleetTest, ForcedEvictionPreservesBitIdentity) {
  // Every session is torn down and rehydrated from the in-memory store
  // every 25 events — dozens of full save/load cycles per stream — and
  // the scores must still match the never-evicted sequential run.
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 4;
  options.store = &store;
  options.force_evict_every = 25;
  RunGoldenScenario(options, /*length=*/400);
  EXPECT_GT(store.size(), 0u);
}

TEST(ServeFleetTest, LruCacheEvictionPreservesBitIdentity) {
  // One resident detector per shard: with 8 sessions on 2 shards, every
  // event for a non-resident session forces an LRU eviction + rehydrate.
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 2;
  options.store = &store;
  options.max_resident_per_shard = 1;
  RunGoldenScenario(options, /*length=*/320);
}

TEST(ServeFleetTest, DiskStoreEvictionPreservesBitIdentity) {
  DiskCheckpointStore store(::testing::TempDir() + "/serve_fleet_ckpt");
  FleetOptions options;
  options.shards = 3;
  options.store = &store;
  options.force_evict_every = 40;
  RunGoldenScenario(options, /*length=*/320);
}

TEST(ServeFleetTest, GoldenInvariantAtIssueScale) {
  // The acceptance scenario verbatim: 4 shards, 8 interleaved streams,
  // eviction forced every 1000 events.
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 4;
  options.store = &store;
  options.force_evict_every = 1000;
  RunGoldenScenario(options, /*length=*/1100);
}

TEST(ServeFleetTest, CallbackResultsArriveInStreamOrder) {
  constexpr std::size_t kStreams = 6;
  std::vector<data::LabeledSeries> streams;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kStreams; ++i) {
    streams.push_back(MakeSeries(i, 300));
    ids.push_back("ord-" + std::to_string(i));
  }
  FleetOptions options;
  options.shards = 3;
  DetectorFleet fleet(options);
  CollectedResults collected;
  for (std::size_t i = 0; i < kStreams; ++i) {
    SessionConfig config = ConfigFor(i);
    config.on_result = [&collected](const std::string& stream_id,
                                    const SessionStepResult& result) {
      std::lock_guard<std::mutex> lock(collected.mutex);
      collected.by_stream[stream_id].push_back(result);
    };
    ASSERT_TRUE(fleet.CreateSession(ids[i], config).ok());
  }
  ReplayMerged(&fleet, ids, RoundRobinMerge(streams));
  fleet.WaitIdle();
  fleet.Stop();
  for (const std::string& id : ids) {
    const auto& results = collected.by_stream[id];
    ASSERT_FALSE(results.empty()) << id;
    for (std::size_t i = 1; i < results.size(); ++i) {
      ASSERT_LT(results[i - 1].t, results[i].t) << id;
    }
  }
}

TEST(ServeFleetTest, PollRingBuffersResultsWithoutCallback) {
  const data::LabeledSeries series = MakeSeries(0, 300);
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("pollme", ConfigFor(0)).ok());
  for (std::size_t t = 0; t < series.length(); ++t) {
    while (fleet.Submit("pollme", series.At(t)) == Admission::kDropped) {
      std::this_thread::yield();
    }
  }
  fleet.WaitIdle();

  std::vector<SessionStepResult> first_two;
  EXPECT_EQ(fleet.Poll("pollme", &first_two, 2), 2u);
  std::vector<SessionStepResult> rest;
  const std::size_t drained = fleet.Poll("pollme", &rest, 0);
  EXPECT_GT(drained, 0u);

  std::vector<SessionStepResult> all = first_two;
  all.insert(all.end(), rest.begin(), rest.end());
  ExpectBitIdentical(all, SequentialReference(0, series), "pollme");

  // Ring is drained now.
  std::vector<SessionStepResult> empty;
  EXPECT_EQ(fleet.Poll("pollme", &empty, 0), 0u);
  fleet.Stop();
}

TEST(ServeFleetTest, PollRingDropsOldestOnOverflow) {
  const data::LabeledSeries series = MakeSeries(1, 300);
  obs::MetricsRegistry registry;
  FleetOptions options;
  options.shards = 1;
  options.result_ring_capacity = 4;
  options.metrics = &registry;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("tiny-ring", ConfigFor(1)).ok());
  for (std::size_t t = 0; t < series.length(); ++t) {
    while (fleet.Submit("tiny-ring", series.At(t)) == Admission::kDropped) {
      std::this_thread::yield();
    }
  }
  fleet.WaitIdle();
  fleet.Stop();

  std::vector<SessionStepResult> results;
  EXPECT_EQ(fleet.Poll("tiny-ring", &results, 0), 4u);
  const auto reference = SequentialReference(1, series);
  ASSERT_GT(reference.size(), 4u);
  // The surviving four are the NEWEST four, in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].t, reference[reference.size() - 4 + i].t);
  }
  EXPECT_GT(fleet.Stats().result_overflow, 0u);
  EXPECT_EQ(
      registry.GetCounter("streamad_serve_result_overflow_total")->Value(),
      fleet.Stats().result_overflow);
}

TEST(ServeFleetTest, BackpressureStateMachine) {
  // A callback that blocks on a latch wedges the single shard worker
  // with an EMPTY queue behind it; with capacity 4 / watermark 3 the
  // admission sequence is then fully deterministic: two events admit as
  // kQueued (depth 1, 2), two as kThrottled (depth 3, 4 — at/over the
  // watermark), and the fifth is kDropped (queue full).
  // `entered` is the entry latch: the callback sets it before blocking on
  // `release`, so the feeder knows the worker is inside the callback.
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool entered = false;
  bool release = false;

  FleetOptions options;
  options.shards = 1;
  options.queue_capacity = 4;
  options.throttle_watermark = 3;
  DetectorFleet fleet(options);

  SessionConfig config;
  config.spec = {core::ModelType::kNearestNeighbor,
                 core::Task1::kSlidingWindow, core::Task2::kMuSigma};
  config.score = core::ScoreType::kAverage;
  config.detector = FastConfig();
  // Minimal warm-up/training so the callback engages within a few events.
  config.detector.window = 2;
  config.detector.initial_train_steps = 1;
  config.on_result = [&](const std::string&, const SessionStepResult&) {
    std::unique_lock<std::mutex> lock(latch_mutex);
    entered = true;
    latch_cv.notify_all();
    latch_cv.wait(lock, [&] { return release; });
  };
  ASSERT_TRUE(fleet.CreateSession("wedged", config).ok());

  const core::StreamVector v{0.5, 1.0};
  // Feed one event at a time until the first scored step wedges the
  // worker inside the blocking callback. After each submit, wait until
  // either the callback latched (the worker is wedged and its queue is
  // empty) or the shard finished the event without a result. The shard's
  // own `processed` counter only advances once `ProcessEvent`, callback
  // included, has returned; the fleet-wide `Stats().processed` advances
  // before the callback runs and so cannot tell the two cases apart.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t submitted = 0;
  bool wedged = false;
  while (!wedged) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "detector never produced a scored step";
    ASSERT_EQ(fleet.Submit("wedged", v), Admission::kQueued);
    ++submitted;
    std::unique_lock<std::mutex> lock(latch_mutex);
    while (!entered && fleet.SnapshotShards()[0].processed < submitted) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "event " << submitted << " never finished";
      latch_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    wedged = entered;
  }

  EXPECT_EQ(fleet.Submit("wedged", v), Admission::kQueued);
  EXPECT_EQ(fleet.Submit("wedged", v), Admission::kQueued);
  EXPECT_EQ(fleet.Submit("wedged", v), Admission::kThrottled);
  EXPECT_EQ(fleet.Submit("wedged", v), Admission::kThrottled);
  EXPECT_EQ(fleet.Submit("wedged", v), Admission::kDropped);
  EXPECT_EQ(fleet.Stats().throttled, 2u);
  EXPECT_EQ(fleet.Stats().dropped, 1u);

  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  fleet.WaitIdle();
  fleet.Stop();
  EXPECT_EQ(fleet.Stats().processed, submitted + 4);
}

/// A store whose writes always fail — the shape of a full disk.
class FailingPutStore : public CheckpointStore {
 public:
  core::Status Put(const std::string&, const std::string&) override {
    // Relaxed: counts attempts only; Stop() joins before puts() is read.
    puts_.fetch_add(1, std::memory_order_relaxed);
    return core::Status::IoError("disk full");
  }
  core::Status Get(const std::string& key, std::string* blob) override {
    (void)blob;
    return core::Status::NotFound("no checkpoint for key: " + key);
  }
  int puts() const { return puts_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> puts_{0};
};

TEST(ServeFleetTest, UnevictableSessionsDoNotWedgeTheShardWorker) {
  // Regression: with every eviction failing, EnforceResidencyCap used to
  // reselect the same LRU victim forever — the shard worker spun and
  // WaitIdle hung. Unevictable sessions must instead stay resident (over
  // the cap) while events keep flowing.
  FailingPutStore store;
  FleetOptions options;
  options.shards = 1;
  options.store = &store;
  options.max_resident_per_shard = 1;
  DetectorFleet fleet(options);
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    ids.push_back("stuck-" + std::to_string(i));
    ASSERT_TRUE(fleet.CreateSession(ids[i], ConfigFor(i)).ok());
  }
  const data::LabeledSeries series = MakeSeries(0, 20);
  for (std::size_t t = 0; t < series.length(); ++t) {
    for (const std::string& id : ids) {
      while (fleet.Submit(id, series.At(t)) == Admission::kDropped) {
        std::this_thread::yield();
      }
    }
  }
  fleet.WaitIdle();
  fleet.Stop();

  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.processed, series.length() * ids.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(store.puts(), 0);  // evictions were attempted, all failed
  EXPECT_EQ(stats.resident_sessions, ids.size());
  for (const std::string& id : ids) {
    EXPECT_TRUE(fleet.SessionHealth(id).ok()) << id;
  }
}

/// Ids of the resident sessions, sorted (SnapshotSessions sorts by id).
std::vector<std::string> ResidentIds(const DetectorFleet& fleet) {
  std::vector<std::string> ids;
  for (const SessionSnapshot& session : fleet.SnapshotSessions()) {
    if (session.resident) ids.push_back(session.id);
  }
  return ids;
}

/// Submits one event for `id` into an idle fleet and waits for it, so
/// every step (and its evictions) completes before the next one starts.
void StepAndWait(DetectorFleet* fleet, const std::string& id,
                 const core::StreamVector& values) {
  ASSERT_EQ(fleet->Submit(id, values), Admission::kQueued) << id;
  fleet->WaitIdle();
}

TEST(ServeFleetTest, LruEvictsTheLeastRecentlySteppedSession) {
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 1;
  options.store = &store;
  options.max_resident_per_shard = 2;
  DetectorFleet fleet(options);
  const std::vector<std::string> ids = {"a", "b", "c", "d"};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(fleet.CreateSession(ids[i], ConfigFor(i)).ok());
  }
  EXPECT_EQ(fleet.Stats().resident_sessions, ids.size());

  const data::LabeledSeries series = MakeSeries(0, 8);
  const std::vector<std::string> order = {"a", "b", "c", "a", "d"};
  for (std::size_t t = 0; t < order.size(); ++t) {
    StepAndWait(&fleet, order[t], series.At(t));
    EXPECT_EQ(fleet.SnapshotShards()[0].resident,
              options.max_resident_per_shard)
        << "after step " << t;
    EXPECT_EQ(fleet.Stats().resident_sessions,
              options.max_resident_per_shard)
        << "after step " << t;
  }
  // c was stepped after a's first step, but a was stepped again since.
  EXPECT_EQ(ResidentIds(fleet), (std::vector<std::string>{"a", "d"}));
  fleet.Stop();
  EXPECT_EQ(fleet.Stats().processed, order.size());
  // Cold b and c went first; then d, a, b and c each made room for the
  // step that brought b, c, a and d back.
  EXPECT_EQ(fleet.Stats().evictions, 6u);
  EXPECT_EQ(fleet.Stats().rehydrations, 4u);
}

TEST(ServeFleetTest, LruEvictsNeverSteppedSessionsFirstInCreationOrder) {
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 1;
  options.store = &store;
  options.max_resident_per_shard = 3;
  DetectorFleet fleet(options);
  const data::LabeledSeries series = MakeSeries(0, 8);
  ASSERT_TRUE(fleet.CreateSession("a", ConfigFor(0)).ok());
  ASSERT_TRUE(fleet.CreateSession("b", ConfigFor(1)).ok());
  StepAndWait(&fleet, "a", series.At(0));
  StepAndWait(&fleet, "b", series.At(1));
  // c, d and e are created after b's step and never stepped themselves.
  ASSERT_TRUE(fleet.CreateSession("c", ConfigFor(2)).ok());
  ASSERT_TRUE(fleet.CreateSession("d", ConfigFor(3)).ok());
  ASSERT_TRUE(fleet.CreateSession("e", ConfigFor(4)).ok());
  EXPECT_EQ(fleet.Stats().resident_sessions, 5u);

  // Two must go: the never-stepped ones leave before the stepped b, and
  // among themselves the oldest-created leave first.
  StepAndWait(&fleet, "a", series.At(2));
  EXPECT_EQ(ResidentIds(fleet), (std::vector<std::string>{"a", "b", "e"}));
  EXPECT_EQ(fleet.SnapshotShards()[0].resident, 3u);
  EXPECT_EQ(fleet.Stats().evictions, 2u);

  // e is still the coldest: it goes before the stepped b when c returns.
  StepAndWait(&fleet, "c", series.At(0));
  EXPECT_EQ(ResidentIds(fleet), (std::vector<std::string>{"a", "b", "c"}));
  fleet.Stop();
}

TEST(ServeFleetTest, DiskStoreDistinguishesKeysThatSanitiseIdentically) {
  // "a/b" and "a_b" both sanitise to "a_b"; the raw-key hash in the file
  // name must keep their checkpoints apart, or identically-configured
  // sessions would silently rehydrate each other's state.
  DiskCheckpointStore store(::testing::TempDir() + "/serve_fleet_collide");
  ASSERT_TRUE(store.Put("a/b", "blob-slash").ok());
  ASSERT_TRUE(store.Put("a_b", "blob-underscore").ok());
  std::string blob;
  ASSERT_TRUE(store.Get("a/b", &blob).ok());
  EXPECT_EQ(blob, "blob-slash");
  ASSERT_TRUE(store.Get("a_b", &blob).ok());
  EXPECT_EQ(blob, "blob-underscore");
}

TEST(ServeFleetTest, DuplicateSessionIsRejectedWithMessage) {
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("dup", ConfigFor(0)).ok());
  const core::Status status = fleet.CreateSession("dup", ConfigFor(1));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("dup"), std::string::npos);
  fleet.Stop();
}

TEST(ServeFleetTest, CorruptCheckpointPoisonsSession) {
  // Force an eviction, corrupt the stored blob, and require the next
  // event to fail rehydration: the session reports a sticky non-OK
  // health (with the LoadState message inside) and drops events instead
  // of scoring garbage.
  obs::MetricsRegistry registry;
  MemoryCheckpointStore store;
  FleetOptions options;
  options.shards = 1;
  options.store = &store;
  options.force_evict_every = 10;
  options.metrics = &registry;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("doomed", ConfigFor(0)).ok());
  const data::LabeledSeries series = MakeSeries(0, 40);
  for (std::size_t t = 0; t < 10; ++t) {
    while (fleet.Submit("doomed", series.At(t)) == Admission::kDropped) {
      std::this_thread::yield();
    }
  }
  fleet.WaitIdle();
  ASSERT_GE(fleet.Stats().evictions, 1u);
  ASSERT_TRUE(store.Put("doomed", "corrupted beyond recognition").ok());

  for (std::size_t t = 10; t < 14; ++t) {
    while (fleet.Submit("doomed", series.At(t)) == Admission::kDropped) {
      std::this_thread::yield();
    }
  }
  fleet.WaitIdle();
  fleet.Stop();

  const core::Status health = fleet.SessionHealth("doomed");
  EXPECT_FALSE(health.ok());
  EXPECT_NE(health.message().find("doomed"), std::string::npos);
  EXPECT_GE(fleet.Stats().rehydrate_failures, 1u);
  EXPECT_EQ(
      registry.GetCounter("streamad_serve_rehydrate_failures_total")->Value(),
      fleet.Stats().rehydrate_failures);
  // Worker-side drops: the failed rehydration and the poisoned session.
  EXPECT_GT(fleet.Stats().dropped, 0u);
}

TEST(ServeFleetTest, UnknownSessionHealthIsNotFound) {
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  EXPECT_EQ(fleet.SessionHealth("ghost").code(),
            core::StatusCode::kNotFound);
  fleet.Stop();
}

TEST(ServeFleetTest, SubmitAfterStopDrops) {
  FleetOptions options;
  options.shards = 1;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("late", ConfigFor(0)).ok());
  fleet.Stop();
  EXPECT_EQ(fleet.Submit("late", core::StreamVector{1.0, 2.0, 3.0}),
            Admission::kDropped);
  EXPECT_FALSE(fleet.CreateSession("later", ConfigFor(0)).ok());
}

TEST(ServeFleetTest, ShardAssignmentIsStableAndPartitionsSessions) {
  FleetOptions options;
  options.shards = 4;
  DetectorFleet fleet(options);
  for (int i = 0; i < 32; ++i) {
    const std::string id = "part-" + std::to_string(i);
    const std::size_t shard = fleet.ShardOf(id);
    EXPECT_LT(shard, options.shards);
    EXPECT_EQ(shard, fleet.ShardOf(id));  // stable
  }
  fleet.Stop();
}

TEST(ServeFleetTest, SubmitBatchAdmissionsMatchLoneSubmits) {
  // Same deterministic shape as BackpressureStateMachine, driven through
  // one SubmitBatch call instead of five Submits: hold the only shard, so
  // with capacity 4 / watermark 3 a ten-event batch must admit as
  // [queued, queued, throttled, throttled, dropped x6] — exactly what a
  // sequence of lone Submit calls would report.
  FleetOptions options;
  options.shards = 1;
  options.queue_capacity = 4;
  options.throttle_watermark = 3;
  DetectorFleet fleet(options);
  ASSERT_TRUE(fleet.CreateSession("batched", ConfigFor(0)).ok());
  fleet.HoldShardForTest(0, true);

  std::vector<Event> events;
  for (int k = 0; k < 10; ++k) {
    events.push_back(Event{"batched", {1.0, 2.0, 3.0}});
  }
  std::vector<Admission> admissions(events.size());
  fleet.SubmitBatch(events, admissions.data());

  EXPECT_EQ(admissions[0], Admission::kQueued);
  EXPECT_EQ(admissions[1], Admission::kQueued);
  EXPECT_EQ(admissions[2], Admission::kThrottled);
  EXPECT_EQ(admissions[3], Admission::kThrottled);
  for (std::size_t k = 4; k < admissions.size(); ++k) {
    EXPECT_EQ(admissions[k], Admission::kDropped) << "event " << k;
  }

  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.throttled, 2u);
  EXPECT_EQ(stats.dropped, 6u);

  // Dropped events must not leak inflight accounting: WaitIdle has to
  // return once the four accepted events are processed.
  fleet.HoldShardForTest(0, false);
  fleet.WaitIdle();
  EXPECT_EQ(fleet.Stats().processed, 4u);
  fleet.Stop();
}

TEST(ServeFleetTest, SubmitBatchPreservesBitIdentityAcrossMixedRuns) {
  // The batch path must be behaviourally invisible: shipping the golden
  // interleaving as mixed-stream batches (runs of consecutive same-id
  // events of varying length) produces the same bit-identical scores as
  // per-event Submit.
  constexpr std::size_t kStreams = 4;
  std::vector<data::LabeledSeries> streams;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kStreams; ++i) {
    streams.push_back(MakeSeries(i, 300));
    ids.push_back("batch-" + std::to_string(i));
  }

  CollectedResults collected;
  FleetOptions options;
  options.shards = 2;
  options.queue_capacity = 1 << 15;  // large: the golden run may not drop
  DetectorFleet fleet(options);
  for (std::size_t i = 0; i < kStreams; ++i) {
    SessionConfig config = ConfigFor(i);
    const std::string id = ids[i];
    config.on_result = [&collected, id](const std::string& stream_id,
                                        const SessionStepResult& result) {
      ASSERT_EQ(stream_id, id);
      std::lock_guard<std::mutex> lock(collected.mutex);
      collected.by_stream[id].push_back(result);
    };
    ASSERT_TRUE(fleet.CreateSession(id, config).ok());
  }

  // Chunk the merged stream into batches of 37 (prime, so run boundaries
  // wander) and duplicate consecutive same-stream pairs into longer runs.
  const std::vector<StreamEvent> merged = RoundRobinMerge(streams);
  std::size_t offset = 0;
  while (offset < merged.size()) {
    const std::size_t count = std::min<std::size_t>(37, merged.size() - offset);
    std::vector<Event> batch;
    batch.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      const StreamEvent& event = merged[offset + k];
      batch.push_back(Event{ids[event.stream], event.values});
    }
    std::vector<Admission> admissions(batch.size());
    fleet.SubmitBatch(batch, admissions.data());
    for (std::size_t k = 0; k < admissions.size(); ++k) {
      ASSERT_NE(admissions[k], Admission::kDropped) << "event " << offset + k;
    }
    offset += count;
  }
  fleet.WaitIdle();
  fleet.Stop();

  EXPECT_EQ(fleet.Stats().processed, merged.size());
  for (std::size_t i = 0; i < kStreams; ++i) {
    ExpectBitIdentical(collected.by_stream[ids[i]],
                       SequentialReference(i, streams[i]), ids[i]);
  }
}

}  // namespace
}  // namespace streamad::serve
