#ifndef STREAMAD_CORE_ALGORITHM_SPEC_H_
#define STREAMAD_CORE_ALGORITHM_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/detector.h"
#include "src/core/detector_config.h"

namespace streamad::core {

/// The five evaluated ML models of Table I plus two extensions that are
/// not part of the paper's 26 combinations (see DESIGN.md): the VAR model
/// of §IV-C and the kNN-conformal model (the original SAFARI
/// similarity-based family expressed in the extended framework).
enum class ModelType {
  kOnlineArima,
  kTwoLayerAe,
  kUsad,
  kNBeats,
  kPcbIForest,
  kVar,
  kNearestNeighbor,
};

/// Task-1 learning strategies (training-set maintenance).
enum class Task1 {
  kSlidingWindow,
  kUniformReservoir,
  kAnomalyAwareReservoir,
};

/// Task-2 learning strategies (fine-tune triggers). `kRegular` is the
/// baseline of §IV-B; Table I evaluates μ/σ-Change and KSWIN; ADWIN is a
/// library extension (see strategies/adwin.h).
enum class Task2 {
  kRegular,
  kMuSigma,
  kKswin,
  kAdwin,
};

/// Anomaly scoring functions of §IV-E (plus the raw baseline of the
/// Table III ablation).
enum class ScoreType {
  kRaw,
  kAverage,
  kAnomalyLikelihood,
};

const char* ToString(ModelType model);
const char* ToString(Task1 task1);
const char* ToString(Task2 task2);
const char* ToString(ScoreType score);

/// One cell of Table I: a model with its Task-1 / Task-2 strategies. The
/// nonconformity measure is implied (iforest score for PCB-iForest, cosine
/// similarity otherwise), exactly as in the paper.
struct AlgorithmSpec {
  ModelType model;
  Task1 task1;
  Task2 task2;
};

/// Human-readable label, e.g. "USAD/ARES/KSWIN".
std::string SpecLabel(const AlgorithmSpec& spec);

/// The 26 combinations of Table I, in the paper's row order.
std::vector<AlgorithmSpec> AllPaperAlgorithms();

/// Builds the model component of a spec (exposed for targeted tests).
std::unique_ptr<Model> BuildModel(ModelType model,
                                  const DetectorConfig& config,
                                  std::uint64_t seed);

/// Composes a full streaming detector for a Table I cell plus an anomaly
/// scoring function. Deterministic given `seed`.
std::unique_ptr<StreamingDetector> BuildDetector(const AlgorithmSpec& spec,
                                                 ScoreType score,
                                                 const DetectorConfig& config,
                                                 std::uint64_t seed);

}  // namespace streamad::core

#endif  // STREAMAD_CORE_ALGORITHM_SPEC_H_
