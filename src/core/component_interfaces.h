#ifndef STREAMAD_CORE_COMPONENT_INTERFACES_H_
#define STREAMAD_CORE_COMPONENT_INTERFACES_H_

#include <cstdint>
#include <string_view>

#include "src/common/op_counters.h"
#include "src/io/binary_io.h"
#include "src/core/status.h"
#include "src/core/training_set.h"
#include "src/core/types.h"
#include "src/linalg/matrix.h"

namespace streamad::core {

/// Delta produced by one Task-1 training-set update; consumed by the drift
/// detectors to update their incremental statistics in O(1).
struct TrainingSetUpdate {
  bool inserted = false;
  bool removed = false;
  FeatureVector inserted_value;  // meaningful only when `inserted`
  FeatureVector removed_value;   // meaningful only when `removed`
};

/// Learning strategy, Task 1 (paper §IV-B): decides how and when the
/// training set `R_train` is updated. Implementations own the set.
class TrainingSetStrategy {
 public:
  virtual ~TrainingSetStrategy() = default;

  /// Offers the current feature vector (with its anomaly score `f_t`, which
  /// only the anomaly-aware reservoir consults) and returns what changed.
  virtual TrainingSetUpdate Offer(const FeatureVector& x,
                                  double anomaly_score) = 0;

  /// The maintained training set.
  virtual const TrainingSet& set() const = 0;

  /// Short identifier, e.g. "SW", "URES", "ARES".
  virtual std::string_view name() const = 0;

  /// Checkpoints the strategy (training set + internal cursors + RNG) into
  /// an archive; default: unsupported. See StreamingDetector::SaveState.
  virtual bool SaveState(io::BinaryWriter* /*writer*/) const { return false; }
  virtual bool LoadState(io::BinaryReader* /*reader*/) { return false; }
};

/// Learning strategy, Task 2 (paper §IV-B): decides when the model
/// parameters are fine-tuned, i.e. detects concept drift in the training
/// set. Implementations: regular interval, μ/σ-Change, KSWIN.
class DriftDetector {
 public:
  virtual ~DriftDetector() = default;

  /// Called once per step after the Task-1 update so incremental state
  /// (e.g. the running mean of μ/σ-Change) can track the set in O(1).
  virtual void Observe(const TrainingSet& set,
                       const TrainingSetUpdate& update, std::int64_t t) = 0;

  /// True iff fine-tuning should be triggered at step `t`.
  virtual bool ShouldFinetune(const TrainingSet& set, std::int64_t t) = 0;

  /// Notifies the detector that a fine-tune just ran on `set`, so it can
  /// snapshot the reference statistics (μ_i, σ_i or R_train,i).
  virtual void OnFinetune(const TrainingSet& set, std::int64_t t) = 0;

  /// Short identifier, e.g. "mu-sigma", "KSWIN".
  virtual std::string_view name() const = 0;

  /// Last computed drift statistic, purely for observability (the flight
  /// recorder snapshots it per step): the normalised mean distance for
  /// μ/σ-Change, the max KS distance for KSWIN, steps since the last
  /// fine-tune for the regular interval, the adaptive window width for
  /// ADWIN. Implementations cache the value their `ShouldFinetune` already
  /// computes — reading it never changes detection behaviour. Default 0.
  virtual double DriftStatistic() const { return 0.0; }

  /// Attaches operation counters (Table II instrumentation). Optional;
  /// default is a no-op for detectors that are not part of that table.
  virtual void AttachOpCounters(OpCounters* /*counters*/) {}

  /// Checkpoints the detector's reference statistics; default: unsupported.
  virtual bool SaveState(io::BinaryWriter* /*writer*/) const { return false; }
  virtual bool LoadState(io::BinaryReader* /*reader*/) { return false; }
};

/// A machine-learning model whose parameters `θ_model` are part of the
/// reference parameters (paper §IV-C). Three shapes exist:
///  - reconstruction models (AE, USAD): `Predict` returns `x̂_t`, same shape
///    as the window;
///  - forecasting models (Online ARIMA, VAR, N-BEATS): `Predict` returns the
///    one-step forecast `ŝ_t` (a `1 x N` matrix) computed from the window's
///    preceding rows;
///  - scoring models (PCB-iForest): no prediction; `AnomalyScore` returns
///    the model's own nonconformity in [0, 1].
class Model {
 public:
  enum class Kind { kReconstruction, kForecast, kScore };

  virtual ~Model() = default;

  virtual Kind kind() const = 0;
  virtual std::string_view name() const = 0;

  /// Trains the model from scratch on the (initial) training set.
  virtual void Fit(const TrainingSet& train) = 0;

  /// One-epoch fine-tune on the current training set — the paper's response
  /// to detected concept drift ("the ML model will be trained on the
  /// training set for one epoch", Table I caption).
  virtual void Finetune(const TrainingSet& train) = 0;

  /// Model prediction for `x` (see `Kind` for the shape contract).
  /// CHECK-fails for scoring models.
  virtual linalg::Matrix Predict(const FeatureVector& x) = 0;

  /// Direct nonconformity in [0, 1] for scoring models.
  /// CHECK-fails for prediction models.
  virtual double AnomalyScore(const FeatureVector& x);

  /// Checkpoints θ_model into an archive (format: io/binary_io.h), the
  /// same `io::BinaryWriter` + `core::Status` convention every other
  /// component interface speaks. The default reports `kUnimplemented`;
  /// every model shipped with the library implements it. Optimizer state
  /// is included so fine-tuning resumes seamlessly, and stochastic models
  /// (PCB-iForest) include their RNG cursor so future tree rebuilds match
  /// an uninterrupted run. Only the weight-initialisation randomness of a
  /// not-yet-fitted neural model is outside the checkpoint (construct
  /// with the same seed to cover that case; see
  /// StreamingDetector::LoadState). Errors carry a diagnosable message
  /// ("arima checkpoint write failed", not a bare false).
  virtual Status SaveState(io::BinaryWriter* writer) const;

  /// Restores a checkpoint written by `SaveState` of the same model type
  /// with compatible hyperparameters. `kDataLoss` for malformed or
  /// foreign archives, `kFailedPrecondition` for a hyperparameter/shape
  /// mismatch (the message names the mismatching knob); the model is left
  /// unusable on failure and must be re-`Fit` or re-loaded.
  virtual Status LoadState(io::BinaryReader* reader);
};

/// Nonconformity measure (paper Def. III.3): maps a feature vector and the
/// reference parameters (here: the model) to a strangeness score in [0, 1].
class NonconformityMeasure {
 public:
  virtual ~NonconformityMeasure() = default;
  virtual double Score(const FeatureVector& x, Model* model) = 0;
  virtual std::string_view name() const = 0;
};

/// Anomaly scoring function (paper Def. III.4): maps the window of recent
/// nonconformity scores to the final anomaly score `f_t`. Implementations
/// are stateful (they keep the window); `Reset` clears that state.
class AnomalyScorer {
 public:
  virtual ~AnomalyScorer() = default;
  virtual double Update(double nonconformity) = 0;
  virtual void Reset() = 0;
  virtual std::string_view name() const = 0;

  /// Checkpoints the score window; default: unsupported.
  virtual bool SaveState(io::BinaryWriter* /*writer*/) const { return false; }
  virtual bool LoadState(io::BinaryReader* /*reader*/) { return false; }
};

}  // namespace streamad::core

#endif  // STREAMAD_CORE_COMPONENT_INTERFACES_H_
