// Tests for obs::ScoreAnalytics — the per-session detection-quality state
// behind /sessions/<id> and /anomalies: threshold semantics (sigma warmup
// vs absolute, pre-update flagging), the windowed anomaly rate, the
// bounded anomaly log, and in-place Reset recycling.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/score_analytics.h"

namespace streamad {
namespace {

obs::StepObservation ScoredStep(std::int64_t t, double score) {
  return {.t = t, .scored = true, .anomaly_score = score};
}

TEST(ScoreAnalyticsTest, SigmaRuleStaysQuietDuringWarmup) {
  obs::ScoreAnalyticsOptions options;
  options.warmup_scored_steps = 8;
  obs::ScoreAnalytics analytics(options);
  // Even a wild outlier must not flag before the EWMA baseline has seen
  // `warmup_scored_steps` scores — the threshold is meaningless earlier.
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(analytics.OnStep(ScoredStep(i, i == 5 ? 1e6 : 1.0)));
  }
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  EXPECT_EQ(snap.anomalies, 0u);
  EXPECT_EQ(snap.scored_steps, 7u);
  EXPECT_DOUBLE_EQ(snap.last_threshold, 0.0);  // rule not armed yet
}

TEST(ScoreAnalyticsTest, SigmaRuleFlagsOutlierAfterStableBaseline) {
  obs::ScoreAnalyticsOptions options;
  options.warmup_scored_steps = 16;
  options.threshold_sigma = 3.0;
  obs::ScoreAnalytics analytics(options);
  std::int64_t t = 0;
  // Alternate around 1.0 so ewma_std stays small but nonzero.
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(analytics.OnStep(ScoredStep(t++, 1.0 + 0.01 * (i % 2))));
  }
  // The threshold in force was computed BEFORE this score folds into the
  // EWMA, so a single spike cannot widen the band enough to hide itself.
  EXPECT_TRUE(analytics.OnStep(ScoredStep(t++, 50.0)));
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  EXPECT_EQ(snap.anomalies, 1u);
  ASSERT_EQ(snap.recent_anomalies.size(), 1u);
  EXPECT_EQ(snap.recent_anomalies[0].t, t - 1);
  EXPECT_DOUBLE_EQ(snap.recent_anomalies[0].score, 50.0);
  EXPECT_LT(snap.recent_anomalies[0].threshold, 50.0);
}

TEST(ScoreAnalyticsTest, AbsoluteThresholdIsArmedFromTheFirstScore) {
  obs::ScoreAnalyticsOptions options;
  options.use_absolute_threshold = true;
  options.absolute_threshold = 2.0;
  options.warmup_scored_steps = 1000;  // must be ignored by this rule
  obs::ScoreAnalytics analytics(options);
  EXPECT_FALSE(analytics.OnStep(ScoredStep(0, 1.5)));
  EXPECT_TRUE(analytics.OnStep(ScoredStep(1, 2.5)));
  EXPECT_FALSE(analytics.OnStep(ScoredStep(2, 2.0)));  // strict >
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  EXPECT_EQ(snap.anomalies, 1u);
  EXPECT_DOUBLE_EQ(snap.last_threshold, 2.0);
}

TEST(ScoreAnalyticsTest, EwmaTracksAConstantStreamExactly) {
  obs::ScoreAnalytics analytics;
  for (int i = 0; i < 100; ++i) analytics.OnStep(ScoredStep(i, 4.0));
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  // Seeded on the first score, then every update has diff == 0.
  EXPECT_DOUBLE_EQ(snap.ewma_mean, 4.0);
  EXPECT_DOUBLE_EQ(snap.ewma_std, 0.0);
  EXPECT_DOUBLE_EQ(snap.last_score, 4.0);
}

TEST(ScoreAnalyticsTest, AnomalyRateIsWindowed) {
  obs::ScoreAnalyticsOptions options;
  options.use_absolute_threshold = true;
  options.absolute_threshold = 5.0;
  options.rate_window = 4;
  obs::ScoreAnalytics analytics(options);
  // Two crossings in the first three scores: rate over a part-filled
  // window divides by the fill, not the capacity.
  analytics.OnStep(ScoredStep(0, 9.0));
  analytics.OnStep(ScoredStep(1, 1.0));
  analytics.OnStep(ScoredStep(2, 9.0));
  EXPECT_DOUBLE_EQ(analytics.Snap().anomaly_rate, 2.0 / 3.0);
  // Four quiet scores push both crossings out of the window; the total
  // stays, the rate drops to zero.
  for (int i = 3; i < 7; ++i) analytics.OnStep(ScoredStep(i, 1.0));
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  EXPECT_DOUBLE_EQ(snap.anomaly_rate, 0.0);
  EXPECT_EQ(snap.anomalies, 2u);
}

TEST(ScoreAnalyticsTest, AnomalyLogKeepsTheNewestEntriesOldestFirst) {
  obs::ScoreAnalyticsOptions options;
  options.use_absolute_threshold = true;
  options.absolute_threshold = 0.5;
  options.anomaly_log_capacity = 2;
  obs::ScoreAnalytics analytics(options);
  for (std::int64_t t = 0; t < 3; ++t) {
    obs::StepObservation step = ScoredStep(t, 10.0 + static_cast<double>(t));
    step.input_min = -1.0 * static_cast<double>(t);
    step.input_max = static_cast<double>(t);
    step.input_mean = 0.25;
    analytics.OnStep(step);
  }
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  EXPECT_EQ(snap.anomalies, 3u);
  ASSERT_EQ(snap.recent_anomalies.size(), 2u);  // capacity bound
  EXPECT_EQ(snap.recent_anomalies[0].t, 1);     // oldest retained first
  EXPECT_EQ(snap.recent_anomalies[1].t, 2);
  EXPECT_DOUBLE_EQ(snap.recent_anomalies[1].score, 12.0);
  EXPECT_DOUBLE_EQ(snap.recent_anomalies[1].input_min, -2.0);
  EXPECT_DOUBLE_EQ(snap.recent_anomalies[1].input_max, 2.0);
  EXPECT_DOUBLE_EQ(snap.recent_anomalies[1].input_mean, 0.25);
}

TEST(ScoreAnalyticsTest, UnscoredStepsOnlyTouchCountersAndGauges) {
  obs::ScoreAnalytics analytics;
  EXPECT_FALSE(analytics.OnStep({.t = 7,
                                  .scored = false,
                                  .finetuned = true,
                                  .drift_statistic = 0.875,
                                  .train_size = 120}));
  const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
  EXPECT_EQ(snap.steps, 1u);
  EXPECT_EQ(snap.scored_steps, 0u);
  EXPECT_EQ(snap.finetunes, 1u);
  EXPECT_DOUBLE_EQ(snap.drift_statistic, 0.875);
  EXPECT_EQ(snap.train_size, 120u);
  EXPECT_EQ(snap.last_step_t, 7);
  EXPECT_EQ(snap.score_quantiles.count, 0u);
}

TEST(ScoreAnalyticsTest, ScoreQuantilesCoverEveryScoredStep) {
  obs::ScoreAnalytics analytics;
  for (int i = 1; i <= 200; ++i) {
    analytics.OnStep(ScoredStep(i, static_cast<double>(i)));
  }
  const obs::QuantileSketch::Snapshot q = analytics.Snap().score_quantiles;
  EXPECT_EQ(q.count, 200u);
  EXPECT_DOUBLE_EQ(q.min, 1.0);
  EXPECT_DOUBLE_EQ(q.max, 200.0);
  EXPECT_NEAR(q.p50(), 100.0, 10.0);
  EXPECT_NEAR(q.p99(), 198.0, 5.0);
}

TEST(ScoreAnalyticsTest, ResetRecyclesAllStateInPlace) {
  obs::ScoreAnalyticsOptions options;
  options.use_absolute_threshold = true;
  options.absolute_threshold = 0.5;
  options.anomaly_log_capacity = 4;
  options.rate_window = 8;
  obs::ScoreAnalytics analytics(options);
  for (int i = 0; i < 20; ++i) analytics.OnStep(ScoredStep(i, 3.0));
  ASSERT_GT(analytics.Snap().anomalies, 0u);

  analytics.Reset();
  const obs::ScoreAnalyticsSnapshot cleared = analytics.Snap();
  EXPECT_EQ(cleared.steps, 0u);
  EXPECT_EQ(cleared.scored_steps, 0u);
  EXPECT_EQ(cleared.anomalies, 0u);
  EXPECT_DOUBLE_EQ(cleared.anomaly_rate, 0.0);
  EXPECT_DOUBLE_EQ(cleared.ewma_mean, 0.0);
  EXPECT_EQ(cleared.score_quantiles.count, 0u);
  EXPECT_TRUE(cleared.recent_anomalies.empty());

  // The recycled instance behaves like a fresh one.
  EXPECT_TRUE(analytics.OnStep(ScoredStep(100, 9.0)));
  const obs::ScoreAnalyticsSnapshot reused = analytics.Snap();
  EXPECT_EQ(reused.anomalies, 1u);
  ASSERT_EQ(reused.recent_anomalies.size(), 1u);
  EXPECT_EQ(reused.recent_anomalies[0].t, 100);
}

TEST(ScoreAnalyticsTest, SnapIsSafeAgainstAConcurrentWriter) {
  obs::ScoreAnalyticsOptions options;
  options.use_absolute_threshold = true;
  options.absolute_threshold = 0.5;
  obs::ScoreAnalytics analytics(options);
  std::thread writer([&analytics] {
    for (int i = 0; i < 20000; ++i) {
      analytics.OnStep(ScoredStep(i, i % 7 == 0 ? 2.0 : 0.1));
    }
  });
  std::uint64_t last_steps = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::ScoreAnalyticsSnapshot snap = analytics.Snap();
    EXPECT_GE(snap.steps, last_steps);  // monotone under concurrency
    EXPECT_GE(snap.steps, snap.scored_steps);
    EXPECT_GE(snap.anomalies, snap.recent_anomalies.size());
    last_steps = snap.steps;
  }
  writer.join();
  EXPECT_EQ(analytics.Snap().steps, 20000u);
}

}  // namespace
}  // namespace streamad
