#include "src/models/knn_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/training_set.h"
#include "src/io/binary_io.h"

namespace streamad::models {
namespace {

core::FeatureVector SineWindow(double phase, std::size_t w, std::size_t n,
                               double noise, Rng* rng, std::int64_t t) {
  core::FeatureVector fv;
  fv.window = linalg::Matrix(w, n);
  for (std::size_t r = 0; r < w; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      fv.window(r, c) = std::sin(0.5 * static_cast<double>(r) + phase +
                                 static_cast<double>(c)) +
                        rng->Gaussian(0.0, noise);
    }
  }
  fv.t = t;
  return fv;
}

core::TrainingSet SineTrainingSet(std::size_t m, std::uint64_t seed,
                                  std::size_t w = 8, std::size_t n = 2) {
  Rng rng(seed);
  core::TrainingSet set(m);
  for (std::size_t i = 0; i < m; ++i) {
    set.Add(SineWindow(rng.Uniform(0.0, 6.28), w, n, 0.05, &rng,
                       static_cast<std::int64_t>(i)));
  }
  return set;
}

// ---- Scalar reference: the model's definition, one distance at a time --

double ReferenceSquaredDistance(std::span<const double> a,
                                std::span<const double> b) {
  double d2 = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double d = a[j] - b[j];
    d2 += d * d;
  }
  return d2;
}

/// Mean of the square roots of the k smallest entries, summed ascending.
double ReferenceMeanOfKSmallest(std::vector<double> squared, std::size_t k) {
  std::sort(squared.begin(), squared.end());
  k = std::min(k, squared.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += std::sqrt(squared[i]);
  return sum / static_cast<double>(k);
}

/// Mean k-NN distance of `probe` to the rows of `train`, skipping `skip`.
double ReferenceMeanKnn(const core::TrainingSet& train,
                        std::span<const double> probe, std::size_t skip,
                        std::size_t k) {
  std::vector<double> squared;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (i == skip) continue;
    squared.push_back(
        ReferenceSquaredDistance(probe, train.at(i).window.data()));
  }
  return ReferenceMeanOfKSmallest(std::move(squared), k);
}

std::vector<double> ReferenceCalibration(const core::TrainingSet& train,
                                         std::size_t k) {
  if (train.size() < 2) return {0.0};
  std::vector<double> calibration;
  for (std::size_t i = 0; i < train.size(); ++i) {
    calibration.push_back(
        ReferenceMeanKnn(train, train.at(i).window.data(), i, k));
  }
  std::sort(calibration.begin(), calibration.end());
  return calibration;
}

double ReferenceScore(const core::TrainingSet& train,
                      const std::vector<double>& calibration,
                      const core::FeatureVector& probe, std::size_t k) {
  const double distance =
      ReferenceMeanKnn(train, probe.window.data(), train.size(), k);
  const auto it =
      std::lower_bound(calibration.begin(), calibration.end(), distance);
  return static_cast<double>(it - calibration.begin()) /
         static_cast<double>(calibration.size());
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void ExpectSameBits(const std::vector<double>& actual,
                    const std::vector<double>& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(Bits(actual[i]), Bits(expected[i])) << what << " [" << i << "]";
  }
}

/// Fits a model on `train` and pins its calibration and its scores on a
/// few probes bit for bit against the scalar reference.
void ExpectMatchesScalarReference(const core::TrainingSet& train,
                                  std::size_t k, std::uint64_t probe_seed) {
  const std::string what = "m=" + std::to_string(train.size()) +
                           " k=" + std::to_string(k);
  KnnModel::Params params;
  params.k = k;
  KnnModel model(params);
  model.Fit(train);
  const std::vector<double> calibration = ReferenceCalibration(train, k);
  ExpectSameBits(model.calibration_distances(), calibration, what);
  Rng rng(probe_seed);
  for (int i = 0; i < 4; ++i) {
    const core::FeatureVector probe =
        SineWindow(rng.Uniform(0.0, 6.28), train.at(0).w(),
                   train.at(0).channels(), 0.3, &rng, 900 + i);
    EXPECT_EQ(Bits(model.AnomalyScore(probe)),
              Bits(ReferenceScore(train, calibration, probe, k)))
        << what << " probe " << i;
  }
}

TEST(KnnModelTest, IsScoringModel) {
  KnnModel model(KnnModel::Params{});
  EXPECT_EQ(model.kind(), core::Model::Kind::kScore);
  EXPECT_FALSE(model.fitted());
}

TEST(KnnModelTest, FitSnapshotsReferenceGroup) {
  KnnModel model(KnnModel::Params{});
  const core::TrainingSet train = SineTrainingSet(40, 1);
  model.Fit(train);
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.reference_size(), 40u);
  EXPECT_EQ(model.calibration_distances().size(), 40u);
}

TEST(KnnModelTest, CalibrationDistancesSorted) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(30, 2));
  const auto& cal = model.calibration_distances();
  for (std::size_t i = 1; i < cal.size(); ++i) {
    EXPECT_LE(cal[i - 1], cal[i]);
  }
}

TEST(KnnModelTest, ScoreInUnitInterval) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(50, 3));
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    const double s = model.AnomalyScore(
        SineWindow(rng.Uniform(0.0, 6.28), 8, 2, 0.05, &rng, 100 + i));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(KnnModelTest, TypicalWindowScoresLow) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(80, 5));
  Rng rng(6);
  // A fresh window from the same distribution: should be unremarkable.
  const double s = model.AnomalyScore(
      SineWindow(1.0, 8, 2, 0.05, &rng, 500));
  EXPECT_LT(s, 0.9);
}

TEST(KnnModelTest, FarWindowScoresOne) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(80, 7));
  Rng rng(8);
  core::FeatureVector far = SineWindow(1.0, 8, 2, 0.05, &rng, 501);
  for (std::size_t i = 0; i < far.window.size(); ++i) {
    far.window.at_flat(i) += 50.0;
  }
  EXPECT_DOUBLE_EQ(model.AnomalyScore(far), 1.0);
}

TEST(KnnModelTest, AnomalousWindowScoresAboveTypical) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(80, 9));
  Rng rng(10);
  const core::FeatureVector normal =
      SineWindow(2.0, 8, 2, 0.05, &rng, 600);
  core::FeatureVector anomalous = normal;
  for (std::size_t r = 2; r < 6; ++r) anomalous.window(r, 0) += 3.0;
  EXPECT_GT(model.AnomalyScore(anomalous), model.AnomalyScore(normal));
  EXPECT_GT(model.AnomalyScore(anomalous), 0.9);
}

TEST(KnnModelTest, FinetuneRefreshesReference) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(40, 11));
  Rng rng(12);

  // Shifted regime: initially anomalous, normal after re-snapshot.
  core::TrainingSet shifted(40);
  for (std::size_t i = 0; i < 40; ++i) {
    core::FeatureVector fv =
        SineWindow(rng.Uniform(0.0, 6.28), 8, 2, 0.05, &rng,
                   static_cast<std::int64_t>(i));
    for (std::size_t j = 0; j < fv.window.size(); ++j) {
      fv.window.at_flat(j) += 5.0;
    }
    shifted.Add(fv);
  }
  const core::FeatureVector probe = shifted.at(0);
  const double before = model.AnomalyScore(probe);
  model.Finetune(shifted);
  const double after = model.AnomalyScore(probe);
  EXPECT_GT(before, 0.95);
  EXPECT_LT(after, before);
}

TEST(KnnModelTest, KLargerThanReferenceIsClamped) {
  KnnModel::Params params;
  params.k = 100;  // more neighbours than reference members
  KnnModel model(params);
  model.Fit(SineTrainingSet(10, 13));
  Rng rng(14);
  const double s = model.AnomalyScore(
      SineWindow(0.5, 8, 2, 0.05, &rng, 700));
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(KnnModelTest, SingleMemberReference) {
  KnnModel model(KnnModel::Params{});
  core::TrainingSet tiny(1);
  Rng rng(15);
  tiny.Add(SineWindow(0.0, 8, 2, 0.05, &rng, 0));
  model.Fit(tiny);
  // Degenerate calibration: any probe with positive distance scores 1.
  core::FeatureVector probe = tiny.at(0);
  probe.window.at_flat(0) += 1.0;
  EXPECT_DOUBLE_EQ(model.AnomalyScore(probe), 1.0);
}

TEST(KnnModelTest, CachedDistancesMatchScalarReferenceBitForBit) {
  // Pins the model's distances bit for bit to the scalar reference above,
  // so a faster distance loop has to keep its add order. The cached path:
  // tiny references (k above m included) and sizes around the default
  // 64-row reservoir.
  for (const std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}) {
    const core::TrainingSet train = SineTrainingSet(m, 30 + m, 8, 3);
    ExpectMatchesScalarReference(train, 5, 31);
    ExpectMatchesScalarReference(train, 1, 32);
  }
}

TEST(KnnModelTest, UncachedDistancesMatchScalarReferenceBitForBit) {
  // Above kMaxCachedRows the calibration runs the per-row probe sweep with
  // `skip` = the row itself.
  for (std::size_t extra = 1; extra <= 4; ++extra) {
    const std::size_t m = KnnModel::kMaxCachedRows + extra;
    const core::TrainingSet train = SineTrainingSet(m, 40 + extra, 4, 3);
    ExpectMatchesScalarReference(train, 5, 41);
  }
}

TEST(KnnModelTest, RoundTripThenInPlaceFinetuneMatchesUninterrupted) {
  constexpr std::size_t kM = 64;
  const core::TrainingSet train = SineTrainingSet(kM, 50, 8, 3);
  KnnModel uninterrupted(KnnModel::Params{});
  uninterrupted.Fit(train);

  std::stringstream archive;
  io::BinaryWriter writer(&archive);
  ASSERT_TRUE(uninterrupted.SaveState(&writer).ok());
  KnnModel resumed(KnnModel::Params{});
  io::BinaryReader reader(&archive);
  ASSERT_TRUE(resumed.LoadState(&reader).ok());
  ExpectSameBits(resumed.calibration_distances(),
                 uninterrupted.calibration_distances(), "after LoadState");

  // Replace a few rows in place: the streaming pattern that takes the
  // incremental Finetune path (the new rows' distances against the cache
  // that LoadState rebuilt).
  core::TrainingSet next = train;
  Rng rng(51);
  for (const std::size_t i : {std::size_t{0}, std::size_t{13},
                              std::size_t{62}}) {
    next.ReplaceAt(i, SineWindow(rng.Uniform(0.0, 6.28), 8, 3, 0.05, &rng,
                                 static_cast<std::int64_t>(kM + i)));
  }
  uninterrupted.Finetune(next);
  resumed.Finetune(next);
  const std::vector<double> calibration = ReferenceCalibration(next, 5);
  ExpectSameBits(uninterrupted.calibration_distances(), calibration,
                 "uninterrupted after Finetune");
  ExpectSameBits(resumed.calibration_distances(), calibration,
                 "resumed after Finetune");
  for (int i = 0; i < 8; ++i) {
    const core::FeatureVector probe =
        SineWindow(rng.Uniform(0.0, 6.28), 8, 3, 0.3, &rng, 1000 + i);
    const double expected = ReferenceScore(next, calibration, probe, 5);
    EXPECT_EQ(Bits(uninterrupted.AnomalyScore(probe)), Bits(expected)) << i;
    EXPECT_EQ(Bits(resumed.AnomalyScore(probe)), Bits(expected)) << i;
  }
}

TEST(KnnModelDeathTest, PredictAborts) {
  KnnModel model(KnnModel::Params{});
  model.Fit(SineTrainingSet(10, 16));
  core::FeatureVector fv;
  fv.window = linalg::Matrix(8, 2);
  EXPECT_DEATH(model.Predict(fv), "scoring model");
}

TEST(KnnModelDeathTest, ScoreBeforeFitAborts) {
  KnnModel model(KnnModel::Params{});
  core::FeatureVector fv;
  fv.window = linalg::Matrix(8, 2);
  EXPECT_DEATH(model.AnomalyScore(fv), "before Fit");
}

TEST(KnnModelDeathTest, ZeroKAborts) {
  KnnModel::Params params;
  params.k = 0;
  EXPECT_DEATH(KnnModel model(params), "positive");
}

// Sweep k: the conformal property (typical probes score ~uniform, so the
// mean over many probes stays near 0.5) holds for every k.
class KnnKSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnKSweepTest, TypicalScoresRoughlyUniform) {
  KnnModel::Params params;
  params.k = static_cast<std::size_t>(GetParam());
  KnnModel model(params);
  model.Fit(SineTrainingSet(100, 17));
  Rng rng(18);
  double sum = 0.0;
  constexpr int kProbes = 100;
  for (int i = 0; i < kProbes; ++i) {
    sum += model.AnomalyScore(
        SineWindow(rng.Uniform(0.0, 6.28), 8, 2, 0.05, &rng, 800 + i));
  }
  EXPECT_NEAR(sum / kProbes, 0.5, 0.2) << "k=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnKSweepTest, ::testing::Values(1, 3, 5, 15));

}  // namespace
}  // namespace streamad::models
