#ifndef STREAMAD_CORE_DETECTOR_H_
#define STREAMAD_CORE_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>

#include "src/core/component_interfaces.h"
#include "src/core/status.h"
#include "src/core/training_set.h"
#include "src/core/types.h"

namespace streamad::obs {
class Recorder;
struct StepObservation;
}

namespace streamad::core {

struct DetectorConfig;  // src/core/detector_config.h

/// The single data representation of the paper (§IV-A): the raw window of
/// the last `w` stream vectors, `x_t = [s_{t-w+1}, ..., s_t]ᵀ`.
class WindowRepresentation {
 public:
  /// Window length `w`; fixed for the lifetime of the representation.
  explicit WindowRepresentation(std::size_t window);

  std::size_t window() const { return window_; }

  /// Feeds the next stream vector. The channel count is pinned by the first
  /// observation.
  void Observe(const StreamVector& s);

  /// True once `w` observations have been seen.
  bool Ready() const { return buffer_.size() == window_; }

  /// Materialises the current feature vector (requires `Ready()`).
  /// `t` is the stream step of the newest observation.
  FeatureVector Current(std::int64_t t) const;

  /// Checkpointing (io/binary_io.h): the ring buffer of recent stream
  /// vectors. `Load` requires the archived window length to match and
  /// reports mismatches with a diagnosable message.
  void Save(io::BinaryWriter* writer) const;
  Status Load(io::BinaryReader* reader);

 private:
  std::size_t window_;
  std::size_t channels_ = 0;
  std::deque<StreamVector> buffer_;
};

/// The composed streaming anomaly detection algorithm — one cell of the
/// paper's Table I: a data representation, a Task-1 strategy, a Task-2
/// drift detector, an ML model, a nonconformity measure and an anomaly
/// scoring function, run as a single per-step pipeline.
///
/// Lifecycle per stream vector:
///   1. warm-up until the window representation is full;
///   2. *initial phase* (first `initial_train_steps` scored-capable steps):
///      feature vectors are accumulated into the training set; no scores
///      are produced. At the end of the phase the model is `Fit`;
///   3. *streaming phase*: nonconformity `a_t` and anomaly score `f_t` are
///      produced, the training set is offered `x_t` with `f_t`, and the
///      drift detector may trigger a one-epoch fine-tune.
class StreamingDetector {
 public:
  /// Outcome of one `Step`.
  struct StepResult {
    /// False during warm-up and the initial training phase.
    bool scored = false;
    /// Nonconformity `a_t` (valid when `scored`).
    double nonconformity = 0.0;
    /// Final anomaly score `f_t` (valid when `scored`).
    double anomaly_score = 0.0;
    /// True when this step triggered a fine-tune.
    bool finetuned = false;
  };

  /// Only `window`, `initial_train_steps` and `finetuning_enabled` are
  /// consumed here; the per-component parameters of `config` are applied
  /// by `BuildDetector` when it constructs the injected components.
  StreamingDetector(const DetectorConfig& config,
                    std::unique_ptr<TrainingSetStrategy> strategy,
                    std::unique_ptr<DriftDetector> drift,
                    std::unique_ptr<Model> model,
                    std::unique_ptr<NonconformityMeasure> nonconformity,
                    std::unique_ptr<AnomalyScorer> scorer);

  /// Processes the next stream vector. A non-null `observation` receives
  /// the step's full `obs::StepObservation` (input digest included) — the
  /// same record an attached recorder is handed.
  StepResult Step(const StreamVector& s,
                  obs::StepObservation* observation = nullptr);

  /// Current stream step (number of `Step` calls so far).
  std::int64_t t() const { return t_; }

  /// Number of fine-tunes triggered so far.
  std::int64_t finetune_count() const { return finetune_count_; }

  /// True once the initial model fit has happened.
  bool trained() const { return trained_; }

  /// Toggles fine-tuning at runtime (Figure-1 fork experiment).
  void set_finetuning_enabled(bool enabled) { finetuning_enabled_ = enabled; }

  /// Attaches a telemetry recorder (src/obs): every subsequent `Step` is
  /// broken into per-stage wall-clock spans, counters and (optionally)
  /// JSONL trace records, and the drift detector's Table II op tallies
  /// are mirrored into the recorder's registry. Pass nullptr to detach.
  /// The recorder observes but never participates: scores are bit-identical
  /// with and without one attached. Not owned; must outlive the detector
  /// or be detached first.
  void set_recorder(obs::Recorder* recorder);
  obs::Recorder* recorder() const { return recorder_; }

  const TrainingSetStrategy& strategy() const { return *strategy_; }
  const DriftDetector& drift_detector() const { return *drift_; }
  Model& model() { return *model_; }

  /// Checkpoints the ENTIRE detector — window buffer, training set with
  /// its strategy cursors and RNG, drift-detector reference statistics,
  /// anomaly-score window, model parameters and step counters. A detector
  /// restored from the checkpoint continues the stream bit-identically,
  /// including every future stochastic decision (the strategy RNG state
  /// travels with the archive). Errors name the failing component or the
  /// I/O condition.
  Status SaveState(std::ostream* out) const;

  /// Restores a checkpoint produced by `SaveState` into a detector built
  /// with the same components and configuration. On error the returned
  /// status pinpoints the mismatch (e.g. "window mismatch: archived 100,
  /// configured 50"); the detector must not be used after a failed load.
  Status LoadState(std::istream* in);

 private:
  /// Builds the step's `obs::StepObservation` when a recorder or the
  /// caller consumes it, and closes the step on the recorder. The input
  /// digest, drift statistic and |R_train| are computed only when the
  /// caller asked or the recorder keeps them — observability reads only,
  /// never arithmetic that feeds back into the pipeline.
  void FinishStep(const StreamVector& s, const StepResult& result,
                  obs::StepObservation* requested);

  std::size_t window_;
  std::size_t initial_train_steps_;
  bool finetuning_enabled_;
  WindowRepresentation representation_;
  std::unique_ptr<TrainingSetStrategy> strategy_;
  std::unique_ptr<DriftDetector> drift_;
  std::unique_ptr<Model> model_;
  std::unique_ptr<NonconformityMeasure> nonconformity_;
  std::unique_ptr<AnomalyScorer> scorer_;

  obs::Recorder* recorder_ = nullptr;

  std::int64_t t_ = -1;
  std::int64_t scorable_steps_ = 0;  // steps with a full window so far
  bool trained_ = false;
  std::int64_t finetune_count_ = 0;
};

}  // namespace streamad::core

#endif  // STREAMAD_CORE_DETECTOR_H_
