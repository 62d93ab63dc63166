#ifndef STREAMAD_OBS_STEP_OBSERVATION_H_
#define STREAMAD_OBS_STEP_OBSERVATION_H_

#include <cstdint>

namespace streamad::obs {

/// Everything one detector step yields for observers: the step's outcome
/// (`a_t`, `f_t`, the fine-tune flag) plus a digest of the pipeline state
/// around it. `StreamingDetector` fills it once per step; the recorder,
/// its flight ring, the score analytics and the fleet all read this one
/// record. Score fields are 0 on unscored steps. The input digest, drift
/// statistic and |R_train| are filled only when a consumer keeps them
/// (`Recorder::wants_step_digest()` or an explicit `Step` out-pointer).
struct StepObservation {
  std::int64_t t = 0;
  bool scored = false;
  bool finetuned = false;
  double nonconformity = 0.0;
  double anomaly_score = 0.0;
  double input_min = 0.0;
  double input_max = 0.0;
  double input_mean = 0.0;
  /// Task-2 drift-detector statistic (`DriftDetector::DriftStatistic()`).
  double drift_statistic = 0.0;
  /// |R_train| after the step's Offer.
  std::uint64_t train_size = 0;
};

}  // namespace streamad::obs

#endif  // STREAMAD_OBS_STEP_OBSERVATION_H_
