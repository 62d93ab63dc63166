#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/algorithm_spec.h"
#include "src/core/detector.h"

namespace streamad::core {
namespace {

DetectorConfig FastParams() {
  DetectorConfig params;
  params.window = 8;
  params.train_capacity = 30;
  params.initial_train_steps = 60;
  params.scorer_k = 15;
  params.scorer_k_short = 3;
  params.ae.fit_epochs = 5;
  params.usad.fit_epochs = 5;
  params.nbeats.fit_epochs = 4;
  params.pcb.forest.num_trees = 12;
  params.kswin.check_every = 4;
  return params;
}

/// A drifting, spiking 3-channel signal.
StreamVector Signal(std::int64_t t) {
  const double drift = t >= 250 ? 1.5 : 0.0;
  const bool spike = t >= 320 && t < 330;
  StreamVector s(3);
  for (std::size_t c = 0; c < 3; ++c) {
    s[c] = drift +
           std::sin(0.2 * static_cast<double>(t) + static_cast<double>(c)) +
           (spike ? 3.0 : 0.0);
  }
  return s;
}

/// Full-detector checkpoint contract, swept over a representative matrix
/// of (model, task1, task2, scorer): run to `checkpoint_at`, checkpoint,
/// restore into a freshly built twin, and require that both produce
/// identical results for the rest of the stream.
struct CheckpointCase {
  const char* name;
  AlgorithmSpec spec;
  ScoreType score;
};

class DetectorCheckpointTest
    : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(DetectorCheckpointTest, MidStreamRoundTripIsBitIdentical) {
  const CheckpointCase& test_case = GetParam();
  const DetectorConfig params = FastParams();

  auto original =
      BuildDetector(test_case.spec, test_case.score, params, 21);
  constexpr std::int64_t kCheckpointAt = 300;  // post-fit, mid-drift
  for (std::int64_t t = 0; t < kCheckpointAt; ++t) {
    original->Step(Signal(t));
  }

  std::stringstream checkpoint;
  const Status save_status = original->SaveState(&checkpoint);
  ASSERT_TRUE(save_status.ok()) << test_case.name << ": "
                                << save_status.ToString();

  // The twin is built with a different seed: every bit of behaviour it
  // shows must come from the checkpoint, not from construction.
  auto restored =
      BuildDetector(test_case.spec, test_case.score, params, 999);
  const Status load_status = restored->LoadState(&checkpoint);
  ASSERT_TRUE(load_status.ok()) << test_case.name << ": "
                                << load_status.ToString();
  EXPECT_EQ(restored->t(), original->t());
  EXPECT_EQ(restored->trained(), original->trained());
  EXPECT_EQ(restored->finetune_count(), original->finetune_count());

  for (std::int64_t t = kCheckpointAt; t < kCheckpointAt + 150; ++t) {
    const auto a = original->Step(Signal(t));
    const auto b = restored->Step(Signal(t));
    ASSERT_EQ(a.scored, b.scored) << test_case.name << " t=" << t;
    ASSERT_EQ(a.nonconformity, b.nonconformity)
        << test_case.name << " t=" << t;
    ASSERT_EQ(a.anomaly_score, b.anomaly_score)
        << test_case.name << " t=" << t;
    ASSERT_EQ(a.finetuned, b.finetuned) << test_case.name << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ComponentMatrix, DetectorCheckpointTest,
    ::testing::Values(
        CheckpointCase{"ae_sw_musigma_avg",
                       {ModelType::kTwoLayerAe, Task1::kSlidingWindow,
                        Task2::kMuSigma},
                       ScoreType::kAverage},
        CheckpointCase{"usad_ures_kswin_al",
                       {ModelType::kUsad, Task1::kUniformReservoir,
                        Task2::kKswin},
                       ScoreType::kAnomalyLikelihood},
        CheckpointCase{"arima_ares_musigma_al",
                       {ModelType::kOnlineArima,
                        Task1::kAnomalyAwareReservoir, Task2::kMuSigma},
                       ScoreType::kAnomalyLikelihood},
        CheckpointCase{"nbeats_sw_regular_raw",
                       {ModelType::kNBeats, Task1::kSlidingWindow,
                        Task2::kRegular},
                       ScoreType::kRaw},
        CheckpointCase{"pcb_sw_kswin_al",
                       {ModelType::kPcbIForest, Task1::kSlidingWindow,
                        Task2::kKswin},
                       ScoreType::kAnomalyLikelihood},
        CheckpointCase{"knn_ares_adwin_avg",
                       {ModelType::kNearestNeighbor,
                        Task1::kAnomalyAwareReservoir, Task2::kAdwin},
                       ScoreType::kAverage},
        CheckpointCase{"var_sw_musigma_avg",
                       {ModelType::kVar, Task1::kSlidingWindow,
                        Task2::kMuSigma},
                       ScoreType::kAverage}),
    [](const ::testing::TestParamInfo<CheckpointCase>& param_info) {
      return param_info.param.name;
    });

TEST(DetectorCheckpointTest, WarmupCheckpointAlsoWorks) {
  // Checkpointing before the initial fit: no model bytes are in the
  // archive, so the weight initialisation happens after restore — the
  // twin must be constructed with the SAME seed (the one remaining piece
  // of state outside an untrained checkpoint; see Model::SaveState).
  const DetectorConfig params = FastParams();
  const AlgorithmSpec spec{ModelType::kTwoLayerAe, Task1::kSlidingWindow,
                           Task2::kMuSigma};
  auto original = BuildDetector(spec, ScoreType::kAverage, params, 3);
  for (std::int64_t t = 0; t < 20; ++t) original->Step(Signal(t));
  ASSERT_FALSE(original->trained());

  std::stringstream checkpoint;
  ASSERT_TRUE(original->SaveState(&checkpoint).ok());
  auto restored = BuildDetector(spec, ScoreType::kAverage, params, 3);
  ASSERT_TRUE(restored->LoadState(&checkpoint).ok());

  // Both finish warm-up + training and then agree exactly.
  for (std::int64_t t = 20; t < 250; ++t) {
    const auto a = original->Step(Signal(t));
    const auto b = restored->Step(Signal(t));
    ASSERT_EQ(a.scored, b.scored);
    ASSERT_EQ(a.anomaly_score, b.anomaly_score);
  }
  EXPECT_TRUE(restored->trained());
}

TEST(DetectorCheckpointTest, RejectsMismatchedOptions) {
  const DetectorConfig params = FastParams();
  const AlgorithmSpec spec{ModelType::kTwoLayerAe, Task1::kSlidingWindow,
                           Task2::kMuSigma};
  auto original = BuildDetector(spec, ScoreType::kAverage, params, 5);
  for (std::int64_t t = 0; t < 100; ++t) original->Step(Signal(t));
  std::stringstream checkpoint;
  ASSERT_TRUE(original->SaveState(&checkpoint).ok());

  DetectorConfig other = params;
  other.window = 12;  // different representation length
  auto mismatched = BuildDetector(spec, ScoreType::kAverage, other, 6);
  const Status status = mismatched->LoadState(&checkpoint);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The error names both sides of the mismatch; the fleet surfaces this
  // message verbatim when a rehydration hits a misconfigured session.
  EXPECT_EQ(status.message(), "window mismatch: archived 8, configured 12");
}

TEST(DetectorCheckpointTest, RejectsMismatchedTrainingPhase) {
  const DetectorConfig params = FastParams();
  const AlgorithmSpec spec{ModelType::kTwoLayerAe, Task1::kSlidingWindow,
                           Task2::kMuSigma};
  auto original = BuildDetector(spec, ScoreType::kAverage, params, 5);
  for (std::int64_t t = 0; t < 100; ++t) original->Step(Signal(t));
  std::stringstream checkpoint;
  ASSERT_TRUE(original->SaveState(&checkpoint).ok());

  DetectorConfig other = params;
  other.initial_train_steps = 90;
  auto mismatched = BuildDetector(spec, ScoreType::kAverage, other, 6);
  const Status status = mismatched->LoadState(&checkpoint);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(),
            "initial_train_steps mismatch: archived 60, configured 90");
}

TEST(DetectorCheckpointTest, RejectsGarbage) {
  const DetectorConfig params = FastParams();
  const AlgorithmSpec spec{ModelType::kOnlineArima, Task1::kSlidingWindow,
                           Task2::kMuSigma};
  auto detector = BuildDetector(spec, ScoreType::kAverage, params, 7);
  std::stringstream garbage("definitely not a detector checkpoint");
  const Status status = detector->LoadState(&garbage);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("streamad.detector.v1"), std::string::npos);
}

TEST(DetectorCheckpointTest, RejectsTruncation) {
  const DetectorConfig params = FastParams();
  const AlgorithmSpec spec{ModelType::kUsad, Task1::kUniformReservoir,
                           Task2::kKswin};
  auto original =
      BuildDetector(spec, ScoreType::kAnomalyLikelihood, params, 8);
  for (std::int64_t t = 0; t < 200; ++t) original->Step(Signal(t));
  std::stringstream checkpoint;
  ASSERT_TRUE(original->SaveState(&checkpoint).ok());
  std::string bytes = checkpoint.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  auto restored =
      BuildDetector(spec, ScoreType::kAnomalyLikelihood, params, 9);
  const Status status = restored->LoadState(&cut);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message(), "");
}

TEST(DetectorCheckpointTest, CorruptDriftCountIsDataLossNotAThrow) {
  // A checkpoint whose drift-detector element count is patched to 2^40 and
  // cut right after it: the load fails with kDataLoss instead of sizing
  // an allocation from the count.
  const DetectorConfig params = FastParams();
  for (const auto& [task2, tag] :
       {std::pair{Task2::kKswin, std::string("kswin.v1")},
        std::pair{Task2::kMuSigma, std::string("musigma.v1")}}) {
    const AlgorithmSpec spec{ModelType::kOnlineArima, Task1::kSlidingWindow,
                             task2};
    auto original = BuildDetector(spec, ScoreType::kAverage, params, 10);
    for (std::int64_t t = 0; t < 100; ++t) original->Step(Signal(t));
    std::stringstream checkpoint;
    ASSERT_TRUE(original->SaveState(&checkpoint).ok());
    std::string bytes = checkpoint.str();
    const std::size_t count_at = bytes.find(tag);
    ASSERT_NE(count_at, std::string::npos) << tag;
    bytes.resize(count_at + tag.size());
    std::stringstream patched;
    patched << bytes;
    io::BinaryWriter(&patched).WriteU64(1ull << 40);
    auto restored = BuildDetector(spec, ScoreType::kAverage, params, 11);
    EXPECT_EQ(restored->LoadState(&patched).code(), StatusCode::kDataLoss)
        << tag;
  }
}

}  // namespace
}  // namespace streamad::core
