#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/algorithm_spec.h"
#include "src/io/binary_io.h"

namespace streamad {
namespace {

// ------------------------------------------------------- binary io ----

TEST(BinaryIoTest, ScalarRoundTrip) {
  std::stringstream stream;
  io::BinaryWriter w(&stream);
  w.WriteU64(42);
  w.WriteI64(-7);
  w.WriteDouble(3.14159);
  w.WriteString("hello");
  ASSERT_TRUE(w.ok());

  io::BinaryReader r(&stream);
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  ASSERT_TRUE(r.ReadU64(&u));
  ASSERT_TRUE(r.ReadI64(&i));
  ASSERT_TRUE(r.ReadDouble(&d));
  ASSERT_TRUE(r.ReadString(&s));
  EXPECT_EQ(u, 42u);
  EXPECT_EQ(i, -7);
  EXPECT_EQ(d, 3.14159);
  EXPECT_EQ(s, "hello");
}

TEST(BinaryIoTest, ContainerRoundTrip) {
  std::stringstream stream;
  io::BinaryWriter w(&stream);
  // Longer than two read chunks, so the reader grows it in several steps.
  std::vector<double> dv(io::BinaryReader::kReadChunkBytes / 4 + 3);
  for (std::size_t i = 0; i < dv.size(); ++i) {
    dv[i] = 1.5 - static_cast<double>(i);
  }
  const std::vector<int> iv = {1, -2, 3};
  const linalg::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  w.WriteDoubleVec(dv);
  w.WriteIntVec(iv);
  w.WriteMatrix(m);
  ASSERT_TRUE(w.ok());

  io::BinaryReader r(&stream);
  std::vector<double> dv2;
  std::vector<int> iv2;
  linalg::Matrix m2;
  ASSERT_TRUE(r.ReadDoubleVec(&dv2));
  ASSERT_TRUE(r.ReadIntVec(&iv2));
  ASSERT_TRUE(r.ReadMatrix(&m2));
  EXPECT_EQ(dv2, dv);
  EXPECT_EQ(iv2, iv);
  EXPECT_EQ(m2, m);
}

TEST(BinaryIoTest, TruncatedStreamFailsCleanly) {
  std::stringstream stream;
  io::BinaryWriter w(&stream);
  w.WriteDoubleVec(std::vector<double>(100, 1.0));
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);  // cut mid-payload
  std::stringstream cut(bytes);
  io::BinaryReader r(&cut);
  std::vector<double> out;
  EXPECT_FALSE(r.ReadDoubleVec(&out));
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIoTest, GarbageLengthRejected) {
  std::stringstream stream;
  io::BinaryWriter w(&stream);
  w.WriteU64(~0ull);  // absurd length prefix
  io::BinaryReader r(&stream);
  std::vector<double> out;
  EXPECT_FALSE(r.ReadDoubleVec(&out));
}

TEST(BinaryIoTest, ClaimedLengthGrowsOnlyAsBytesArrive) {
  // Short archives whose prefix claims 2^27 elements: every read fails,
  // and no container grew past one read chunk on the claim's word.
  const std::uint64_t claim = 1ull << 27;
  const std::string bytes =
      std::string(reinterpret_cast<const char*>(&claim), sizeof(claim)) +
      "sixteen bytes...";
  std::istringstream s1(bytes), s2(bytes), s3(bytes);
  std::string str;
  std::vector<double> staged(3, 1.0);
  std::vector<int> ints;
  std::uint64_t size = 0;
  EXPECT_FALSE(io::BinaryReader(&s1).ReadString(&str));
  EXPECT_FALSE(io::BinaryReader(&s2).AppendDoubleVec(&staged, &size));
  EXPECT_FALSE(io::BinaryReader(&s3).ReadIntVec(&ints));
  constexpr std::size_t kMiB = 1u << 20;
  EXPECT_LT(str.capacity(), kMiB);
  EXPECT_LT(staged.capacity() * sizeof(double), kMiB);
  EXPECT_LT(ints.capacity() * sizeof(int), kMiB);
}

TEST(BinaryIoTest, ExpectStringRejectsMismatch) {
  std::stringstream stream;
  io::BinaryWriter w(&stream);
  w.WriteString("streamad.ae.v1");
  io::BinaryReader r(&stream);
  EXPECT_FALSE(r.ExpectString("streamad.usad.v1"));
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------- model round trips ----

core::TrainingSet MakeTrainingSet(std::size_t m, std::size_t w,
                                  std::size_t channels, std::uint64_t seed) {
  Rng rng(seed);
  core::TrainingSet set(m);
  for (std::size_t i = 0; i < m; ++i) {
    core::FeatureVector fv;
    fv.window = linalg::Matrix(w, channels);
    const double phase = rng.Uniform(0.0, 6.28);
    for (std::size_t r = 0; r < w; ++r) {
      for (std::size_t c = 0; c < channels; ++c) {
        fv.window(r, c) = std::sin(0.5 * static_cast<double>(r) + phase +
                                   static_cast<double>(c)) +
                          rng.Gaussian(0.0, 0.05);
      }
    }
    fv.t = static_cast<std::int64_t>(i);
    set.Add(fv);
  }
  return set;
}

core::DetectorConfig SmallParams() {
  core::DetectorConfig params;
  params.window = 10;
  params.arima.lag_order = 4;
  params.ae.fit_epochs = 5;
  params.usad.fit_epochs = 5;
  params.nbeats.fit_epochs = 5;
  params.pcb.forest.num_trees = 15;
  return params;
}

// The model round-trip contract, swept over every model type: train,
// checkpoint, restore into a *fresh* instance, and require bit-identical
// behaviour on probes.
class ModelSerializationTest
    : public ::testing::TestWithParam<core::ModelType> {};

TEST_P(ModelSerializationTest, RoundTripPreservesBehaviour) {
  const core::ModelType type = GetParam();
  const core::DetectorConfig params = SmallParams();
  const core::TrainingSet train = MakeTrainingSet(40, 10, 3, 5);

  auto original = core::BuildModel(type, params, 77);
  original->Fit(train);

  std::stringstream checkpoint;
  io::BinaryWriter writer(&checkpoint);
  ASSERT_TRUE(original->SaveState(&writer).ok()) << core::ToString(type);

  auto restored = core::BuildModel(type, params, 12345);  // different seed
  io::BinaryReader reader(&checkpoint);
  ASSERT_TRUE(restored->LoadState(&reader).ok()) << core::ToString(type);

  Rng rng(9);
  for (int probe = 0; probe < 10; ++probe) {
    core::FeatureVector fv;
    fv.window = linalg::Matrix(10, 3);
    for (std::size_t i = 0; i < fv.window.size(); ++i) {
      fv.window.at_flat(i) = rng.Gaussian();
    }
    fv.t = 1000 + probe;
    if (original->kind() == core::Model::Kind::kScore) {
      // PCB's AnomalyScore mutates counters; compare the two instances
      // step by step so their internal state stays in lock step.
      EXPECT_EQ(original->AnomalyScore(fv), restored->AnomalyScore(fv))
          << core::ToString(type);
    } else {
      const linalg::Matrix a = original->Predict(fv);
      const linalg::Matrix b = restored->Predict(fv);
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(a.cols(), b.cols());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.at_flat(i), b.at_flat(i)) << core::ToString(type);
      }
    }
  }
}

TEST_P(ModelSerializationTest, LoadRejectsForeignCheckpoint) {
  const core::ModelType type = GetParam();
  const core::DetectorConfig params = SmallParams();
  std::stringstream garbage("not a checkpoint at all");
  auto model = core::BuildModel(type, params, 1);
  io::BinaryReader reader(&garbage);
  const core::Status status = model->LoadState(&reader);
  EXPECT_FALSE(status.ok()) << core::ToString(type);
  EXPECT_EQ(status.code(), core::StatusCode::kDataLoss)
      << core::ToString(type) << ": " << status.ToString();
}

TEST_P(ModelSerializationTest, LoadRejectsTruncatedCheckpoint) {
  const core::ModelType type = GetParam();
  const core::DetectorConfig params = SmallParams();
  const core::TrainingSet train = MakeTrainingSet(30, 10, 3, 6);
  auto model = core::BuildModel(type, params, 2);
  model->Fit(train);
  std::stringstream checkpoint;
  io::BinaryWriter writer(&checkpoint);
  ASSERT_TRUE(model->SaveState(&writer).ok());
  std::string bytes = checkpoint.str();
  bytes.resize(bytes.size() * 2 / 3);
  std::stringstream cut(bytes);
  auto fresh = core::BuildModel(type, params, 3);
  io::BinaryReader reader(&cut);
  EXPECT_FALSE(fresh->LoadState(&reader).ok()) << core::ToString(type);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSerializationTest,
    ::testing::Values(core::ModelType::kOnlineArima,
                      core::ModelType::kTwoLayerAe, core::ModelType::kUsad,
                      core::ModelType::kNBeats, core::ModelType::kPcbIForest,
                      core::ModelType::kVar,
                      core::ModelType::kNearestNeighbor),
    [](const ::testing::TestParamInfo<core::ModelType>& param_info) {
      std::string label = core::ToString(param_info.param);
      for (char& c : label) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return label;
    });

TEST(ModelSerializationTest, FinetuneResumesAfterRestore) {
  // The checkpoint carries the optimizer state: fine-tuning the restored
  // model must equal fine-tuning the original.
  const core::DetectorConfig params = SmallParams();
  const core::TrainingSet train = MakeTrainingSet(40, 10, 3, 7);
  auto original = core::BuildModel(core::ModelType::kTwoLayerAe, params, 4);
  original->Fit(train);

  std::stringstream checkpoint;
  io::BinaryWriter writer(&checkpoint);
  ASSERT_TRUE(original->SaveState(&writer).ok());
  auto restored = core::BuildModel(core::ModelType::kTwoLayerAe, params, 5);
  io::BinaryReader reader(&checkpoint);
  ASSERT_TRUE(restored->LoadState(&reader).ok());

  original->Finetune(train);
  restored->Finetune(train);

  core::FeatureVector probe = train.at(0);
  const linalg::Matrix a = original->Predict(probe);
  const linalg::Matrix b = restored->Predict(probe);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at_flat(i), b.at_flat(i));
  }
}

TEST(ModelSerializationTest, ArimaRejectsHyperparameterMismatch) {
  core::DetectorConfig params = SmallParams();
  const core::TrainingSet train = MakeTrainingSet(20, 10, 3, 8);
  auto model = core::BuildModel(core::ModelType::kOnlineArima, params, 6);
  model->Fit(train);
  std::stringstream checkpoint;
  io::BinaryWriter writer(&checkpoint);
  ASSERT_TRUE(model->SaveState(&writer).ok());

  core::DetectorConfig other = params;
  other.arima.lag_order = 6;  // different K
  auto mismatched = core::BuildModel(core::ModelType::kOnlineArima, other, 7);
  io::BinaryReader reader(&checkpoint);
  const core::Status status = mismatched->LoadState(&reader);
  EXPECT_EQ(status.code(), core::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("lag_order"), std::string::npos)
      << status.ToString();
}

TEST(ModelSerializationTest, UsadEpochScheduleSurvives) {
  const core::DetectorConfig params = SmallParams();
  const core::TrainingSet train = MakeTrainingSet(30, 10, 3, 9);
  models::Usad original(params.usad, 11);
  original.Fit(train);
  const long epochs = original.epochs_seen();

  std::stringstream checkpoint;
  io::BinaryWriter writer(&checkpoint);
  ASSERT_TRUE(original.SaveState(&writer).ok());
  models::Usad restored(params.usad, 12);
  io::BinaryReader reader(&checkpoint);
  ASSERT_TRUE(restored.LoadState(&reader).ok());
  EXPECT_EQ(restored.epochs_seen(), epochs);
}

TEST(ModelSerializationTest, DefaultBaseReportsUnimplemented) {
  // A model without checkpoint support reports it instead of crashing, and
  // the status message names the model.
  class Minimal : public core::Model {
   public:
    Kind kind() const override { return Kind::kForecast; }
    std::string_view name() const override { return "minimal"; }
    void Fit(const core::TrainingSet&) override {}
    void Finetune(const core::TrainingSet&) override {}
    linalg::Matrix Predict(const core::FeatureVector&) override {
      return {};
    }
  };
  Minimal model;
  std::stringstream stream;
  io::BinaryWriter writer(&stream);
  const core::Status save = model.SaveState(&writer);
  EXPECT_EQ(save.code(), core::StatusCode::kUnimplemented);
  EXPECT_NE(save.message().find("minimal"), std::string::npos);
  io::BinaryReader reader(&stream);
  EXPECT_EQ(model.LoadState(&reader).code(),
            core::StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace streamad
