#include "src/obs/score_analytics.h"

#include <cmath>

namespace streamad::obs {

ScoreAnalytics::ScoreAnalytics(ScoreAnalyticsOptions options)
    : options_(options) {
  if (options_.score_sample_every == 0) options_.score_sample_every = 1;
  if (options_.rate_window == 0) options_.rate_window = 1;
  if (options_.anomaly_log_capacity == 0) options_.anomaly_log_capacity = 1;
  rate_ring_.assign(options_.rate_window, 0);
  log_.assign(options_.anomaly_log_capacity, AnomalyLogEntry{});
}

// STREAMAD_HOT: per-step quality-analytics update — runs inside the
// serving hot path for every event of every instrumented session. All
// rings are preallocated in the constructor; this block must not
// allocate.
bool ScoreAnalytics::OnStep(const StepObservation& step) {
  bool flagged = false;
  bool feed_sketch = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++steps_;
    last_step_t_ = step.t;
    drift_statistic_ = step.drift_statistic;
    train_size_ = step.train_size;
    if (step.finetuned) ++finetunes_;

    if (step.scored) {
      const double score = step.anomaly_score;
      // Threshold in force BEFORE this score joins the baseline.
      double threshold = 0.0;
      bool armed = false;
      if (options_.use_absolute_threshold) {
        threshold = options_.absolute_threshold;
        armed = true;
      } else if (scored_steps_ >= options_.warmup_scored_steps) {
        threshold =
            ewma_mean_ + options_.threshold_sigma * std::sqrt(ewma_var_);
        armed = true;
      }
      flagged = armed && score > threshold;
      last_threshold_ = armed ? threshold : 0.0;

      if (flagged) {
        ++anomalies_;
        AnomalyLogEntry& entry = log_[log_cursor_];
        entry.t = step.t;
        entry.score = score;
        entry.threshold = threshold;
        entry.input_min = step.input_min;
        entry.input_max = step.input_max;
        entry.input_mean = step.input_mean;
        log_cursor_ = (log_cursor_ + 1) % log_.size();
        ++log_total_;
      }

      // Slide the rate window: retire the flag falling out, admit this
      // step's.
      if (rate_filled_ == rate_ring_.size()) {
        window_anomalies_ -= rate_ring_[rate_cursor_];
      } else {
        ++rate_filled_;
      }
      rate_ring_[rate_cursor_] = flagged ? 1 : 0;
      window_anomalies_ += rate_ring_[rate_cursor_];
      rate_cursor_ = (rate_cursor_ + 1) % rate_ring_.size();

      // EWMA mean/variance (West-style): seed on the first score so the
      // baseline does not drag through zero.
      if (scored_steps_ == 0) {
        ewma_mean_ = score;
        ewma_var_ = 0.0;
      } else {
        const double diff = score - ewma_mean_;
        const double incr = options_.ewma_alpha * diff;
        ewma_mean_ += incr;
        ewma_var_ = (1.0 - options_.ewma_alpha) * (ewma_var_ + diff * incr);
      }
      last_score_ = score;
      // 1-in-N gate decided here, not inside the sketch, so skipped
      // steps never touch the sketch's mutex at all.
      feed_sketch = scored_steps_ % options_.score_sample_every == 0;
      ++scored_steps_;
    }
  }
  // The sketch has its own internal mutex; feed it outside ours so the
  // read side never holds both at once.
  if (feed_sketch) score_sketch_.Observe(step.anomaly_score);
  return flagged;
}

void ScoreAnalytics::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  steps_ = 0;
  scored_steps_ = 0;
  finetunes_ = 0;
  anomalies_ = 0;
  ewma_mean_ = 0.0;
  ewma_var_ = 0.0;
  last_score_ = 0.0;
  last_threshold_ = 0.0;
  drift_statistic_ = 0.0;
  train_size_ = 0;
  last_step_t_ = 0;
  rate_ring_.assign(rate_ring_.size(), 0);
  rate_cursor_ = 0;
  rate_filled_ = 0;
  window_anomalies_ = 0;
  log_.assign(log_.size(), AnomalyLogEntry{});
  log_cursor_ = 0;
  log_total_ = 0;
  score_sketch_.Reset();
}

ScoreAnalyticsSnapshot ScoreAnalytics::Snap() const {
  ScoreAnalyticsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.steps = steps_;
    snap.scored_steps = scored_steps_;
    snap.finetunes = finetunes_;
    snap.anomalies = anomalies_;
    snap.anomaly_rate =
        rate_filled_ == 0
            ? 0.0
            : static_cast<double>(window_anomalies_) /
                  static_cast<double>(rate_filled_);
    snap.ewma_mean = ewma_mean_;
    snap.ewma_std = std::sqrt(ewma_var_ < 0.0 ? 0.0 : ewma_var_);
    snap.last_score = last_score_;
    snap.last_threshold = last_threshold_;
    snap.drift_statistic = drift_statistic_;
    snap.train_size = train_size_;
    snap.last_step_t = last_step_t_;
    const std::uint64_t retained =
        log_total_ < log_.size() ? log_total_ : log_.size();
    snap.recent_anomalies.reserve(static_cast<std::size_t>(retained));
    // Oldest retained entry sits at the cursor once the ring has wrapped.
    const std::size_t start =
        log_total_ < log_.size() ? 0 : log_cursor_;
    for (std::uint64_t i = 0; i < retained; ++i) {
      snap.recent_anomalies.push_back(
          log_[(start + i) % log_.size()]);
    }
  }
  snap.score_quantiles = score_sketch_.Snap();
  return snap;
}

}  // namespace streamad::obs
