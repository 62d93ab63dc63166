#ifndef STREAMAD_OBS_SCORE_ANALYTICS_H_
#define STREAMAD_OBS_SCORE_ANALYTICS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/quantile_sketch.h"
#include "src/obs/step_observation.h"

namespace streamad::obs {

struct ScoreAnalyticsOptions {
  /// EWMA smoothing factor for the running score mean/variance. Small
  /// values track slowly (long memory); the default weights roughly the
  /// last ~50 scored steps.
  double ewma_alpha = 0.02;
  /// A scored step is logged as an anomaly when its score exceeds
  /// `ewma_mean + threshold_sigma * ewma_std` (self-calibrating), unless
  /// an absolute threshold is configured below.
  double threshold_sigma = 3.0;
  /// When true, `absolute_threshold` replaces the EWMA sigma rule — for
  /// detectors whose score already has a calibrated meaning (e.g. a
  /// conformal p-value or a known nonconformity cutoff).
  bool use_absolute_threshold = false;
  double absolute_threshold = 0.0;
  /// Scored steps to observe before the sigma rule may flag anything;
  /// the EWMA baseline is meaningless until it has seen some scores.
  /// Ignored by the absolute-threshold rule.
  std::uint64_t warmup_scored_steps = 32;
  /// Sliding window (in scored steps) over which `anomaly_rate` is
  /// computed. Fixed at construction; backs a preallocated ring.
  std::size_t rate_window = 256;
  /// Capacity of the recent-anomaly ring ("anomaly log").
  std::size_t anomaly_log_capacity = 32;
  /// 1-in-N subsampling for the score quantile sketch: only every Nth
  /// scored step is observed by the sketch at all, so the non-sampled
  /// steps skip the sketch's internal mutex entirely — the count / sum /
  /// min / max it reports then describe the sampled slice, not every
  /// score. Quantile estimates stay unbiased for i.i.d.-ish score
  /// streams. The default (1) keeps the sketch exact; the serve path
  /// lowers it (`serve::DefaultServeAnalytics`) to hold the
  /// attribution-cost budget.
  std::uint32_t score_sample_every = 1;
};

/// One retained threshold crossing: when, how anomalous, and a digest of
/// the input that caused it.
struct AnomalyLogEntry {
  std::int64_t t = 0;
  double score = 0.0;
  /// The threshold in force when the crossing was flagged.
  double threshold = 0.0;
  double input_min = 0.0;
  double input_max = 0.0;
  double input_mean = 0.0;
};

/// Point-in-time copy of one session's quality state, safe to serialise
/// after the lock is dropped.
struct ScoreAnalyticsSnapshot {
  std::uint64_t steps = 0;
  std::uint64_t scored_steps = 0;
  std::uint64_t finetunes = 0;
  /// Total threshold crossings since construction (or the last Reset).
  std::uint64_t anomalies = 0;
  /// Crossings / scored steps over the trailing `rate_window`; 0 until
  /// the first scored step.
  double anomaly_rate = 0.0;
  double ewma_mean = 0.0;
  double ewma_std = 0.0;
  double last_score = 0.0;
  /// Threshold in force for the *next* scored step; 0 while the sigma
  /// rule is still warming up.
  double last_threshold = 0.0;
  double drift_statistic = 0.0;
  std::uint64_t train_size = 0;
  std::int64_t last_step_t = 0;
  QuantileSketch::Snapshot score_quantiles;
  /// Oldest-first, at most `anomaly_log_capacity` entries.
  std::vector<AnomalyLogEntry> recent_anomalies;
};

/// Per-session detection-quality analytics: score quantiles (P²), EWMA
/// score mean/variance, a windowed anomaly-rate counter, the drift
/// statistic gauge, finetune counts, and a bounded ring of recent
/// threshold crossings.
///
/// The write side (`OnStep`) is allocation-free after construction and
/// belongs to exactly one thread at a time — the detector's (library
/// path, fed by `Recorder::EndStep`) or the owning shard worker's (serve
/// path, fed the `StepObservation` that `StreamingDetector::Step` wrote
/// out). The read side (`Snap`) may run concurrently from the HTTP plane;
/// a mutex covers the handoff. Analytics never feed back into detector
/// arithmetic: scores in == bits unchanged out.
///
/// Lifecycle matches the fleet's Session: the instance survives session
/// eviction (only the detector is torn down) so totals and the anomaly
/// log span rehydrations; `Reset` recycles the state in place for reuse
/// without reallocating the rings.
class ScoreAnalytics {
 public:
  explicit ScoreAnalytics(ScoreAnalyticsOptions options = {});

  ScoreAnalytics(const ScoreAnalytics&) = delete;
  ScoreAnalytics& operator=(const ScoreAnalytics&) = delete;

  /// Folds one step in. Returns true when the step was scored and its
  /// score crossed the threshold in force *before* this step's score was
  /// folded into the EWMA baseline (so one outlier cannot mask itself).
  bool OnStep(const StepObservation& step);

  /// Drops all state back to as-constructed, keeping every allocation
  /// (rings, sketch markers) for reuse.
  void Reset();

  ScoreAnalyticsSnapshot Snap() const;

  const ScoreAnalyticsOptions& options() const { return options_; }

 private:
  ScoreAnalyticsOptions options_;

  mutable std::mutex mutex_;
  std::uint64_t steps_ = 0;
  std::uint64_t scored_steps_ = 0;
  std::uint64_t finetunes_ = 0;
  std::uint64_t anomalies_ = 0;
  double ewma_mean_ = 0.0;
  double ewma_var_ = 0.0;
  double last_score_ = 0.0;
  double last_threshold_ = 0.0;
  double drift_statistic_ = 0.0;
  std::uint64_t train_size_ = 0;
  std::int64_t last_step_t_ = 0;

  // Trailing-window anomaly rate: one flag byte per scored step,
  // preallocated to `rate_window`.
  std::vector<std::uint8_t> rate_ring_;
  std::size_t rate_cursor_ = 0;
  std::size_t rate_filled_ = 0;
  std::uint64_t window_anomalies_ = 0;

  // Anomaly log ring, preallocated to `anomaly_log_capacity`.
  std::vector<AnomalyLogEntry> log_;
  std::size_t log_cursor_ = 0;
  std::uint64_t log_total_ = 0;

  QuantileSketch score_sketch_;
};

}  // namespace streamad::obs

#endif  // STREAMAD_OBS_SCORE_ANALYTICS_H_
