#include <sstream>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/io/binary_io.h"
#include "src/strategies/kswin.h"
#include "src/strategies/mu_sigma_change.h"
#include "src/strategies/regular_interval.h"
#include "src/strategies/sliding_window.h"

namespace streamad::strategies {
namespace {

core::FeatureVector GaussianWindow(Rng* rng, std::size_t w, std::size_t n,
                                   double mean, double std, std::int64_t t) {
  core::FeatureVector fv;
  fv.window = linalg::Matrix(w, n);
  for (std::size_t i = 0; i < fv.window.size(); ++i) {
    fv.window.at_flat(i) = rng->Gaussian(mean, std);
  }
  fv.t = t;
  return fv;
}

/// Drives a (SW strategy, drift detector) pair over a stream that starts
/// at N(mean0, std0) and switches to N(mean1, std1) at `switch_at`.
/// Returns the step at which the detector first fires, or -1.
std::int64_t FirstDetection(core::DriftDetector* detector, double mean0,
                            double std0, double mean1, double std1,
                            std::int64_t switch_at, std::int64_t total,
                            std::uint64_t seed) {
  Rng rng(seed);
  SlidingWindow strategy(40);
  std::int64_t t = 0;
  // Warm-up: fill the set and take the reference snapshot.
  for (; t < 40; ++t) {
    const auto update =
        strategy.Offer(GaussianWindow(&rng, 5, 2, mean0, std0, t), 0.0);
    detector->Observe(strategy.set(), update, t);
  }
  detector->OnFinetune(strategy.set(), t - 1);
  for (; t < total; ++t) {
    const bool drifted = t >= switch_at;
    const auto update = strategy.Offer(
        GaussianWindow(&rng, 5, 2, drifted ? mean1 : mean0,
                       drifted ? std1 : std0, t),
        0.0);
    detector->Observe(strategy.set(), update, t);
    if (detector->ShouldFinetune(strategy.set(), t)) return t;
  }
  return -1;
}

/// Loads an archive holding `tag`, an element count of 2^40, then nothing.
/// A loader that sized an allocation from the count would throw
/// `std::bad_alloc`; a correct one fails at the first missing entry.
template <typename Detector>
bool LoadsHugeCountArchive(const std::string& tag) {
  std::stringstream archive;
  io::BinaryWriter writer(&archive);
  writer.WriteString(tag);
  writer.WriteU64(1ull << 40);
  io::BinaryReader reader(&archive);
  Detector detector;
  return detector.LoadState(&reader);
}

// ----------------------------------------------------------- regular ----

TEST(RegularIntervalTest, FiresFirstTimeImmediately) {
  RegularInterval detector(10);
  SlidingWindow strategy(4);
  Rng rng(1);
  strategy.Offer(GaussianWindow(&rng, 3, 1, 0, 1, 0), 0.0);
  EXPECT_TRUE(detector.ShouldFinetune(strategy.set(), 0));
}

TEST(RegularIntervalTest, RespectsInterval) {
  RegularInterval detector(10);
  SlidingWindow strategy(4);
  Rng rng(1);
  strategy.Offer(GaussianWindow(&rng, 3, 1, 0, 1, 0), 0.0);
  detector.OnFinetune(strategy.set(), 100);
  EXPECT_FALSE(detector.ShouldFinetune(strategy.set(), 105));
  EXPECT_FALSE(detector.ShouldFinetune(strategy.set(), 109));
  EXPECT_TRUE(detector.ShouldFinetune(strategy.set(), 110));
}

TEST(RegularIntervalTest, EmptySetNeverFires) {
  RegularInterval detector(5);
  SlidingWindow strategy(4);
  EXPECT_FALSE(detector.ShouldFinetune(strategy.set(), 50));
}

TEST(RegularIntervalDeathTest, NonPositiveIntervalAborts) {
  EXPECT_DEATH(RegularInterval(0), "positive");
}

// ---------------------------------------------------------- mu/sigma ----

TEST(MuSigmaChangeTest, CorruptDimCountFailsLoad) {
  EXPECT_FALSE(LoadsHugeCountArchive<MuSigmaChange>("musigma.v1"));
}

TEST(MuSigmaChangeTest, StableStreamDoesNotFire) {
  MuSigmaChange detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 0.0, 1.0, 10000, 400, 5);
  EXPECT_EQ(fired, -1);
}

TEST(MuSigmaChangeTest, DetectsMeanShift) {
  MuSigmaChange detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 3.0, 1.0, 200, 400, 6);
  EXPECT_GE(fired, 200);
  EXPECT_LT(fired, 300);  // fires while the set turns over
}

TEST(MuSigmaChangeTest, DetectsVarianceExplosion) {
  MuSigmaChange detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 0.0, 5.0, 200, 400, 7);
  EXPECT_GE(fired, 200);
  EXPECT_NE(fired, -1);
}

TEST(MuSigmaChangeTest, DetectsVarianceCollapse) {
  MuSigmaChange detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 2.0, 0.0, 0.2, 200, 400, 8);
  EXPECT_GE(fired, 200);
  EXPECT_NE(fired, -1);
}

TEST(MuSigmaChangeTest, NoReferenceMeansNoFiring) {
  MuSigmaChange detector;
  SlidingWindow strategy(4);
  Rng rng(2);
  for (std::int64_t t = 0; t < 10; ++t) {
    const auto update =
        strategy.Offer(GaussianWindow(&rng, 3, 1, 0, 1, t), 0.0);
    detector.Observe(strategy.set(), update, t);
    EXPECT_FALSE(detector.ShouldFinetune(strategy.set(), t));
  }
}

TEST(MuSigmaChangeTest, RunningStatsTrackSetAfterChurn) {
  MuSigmaChange detector;
  SlidingWindow strategy(10);
  Rng rng(3);
  for (std::int64_t t = 0; t < 100; ++t) {
    const auto update =
        strategy.Offer(GaussianWindow(&rng, 4, 2, 1.0, 0.5, t), 0.0);
    detector.Observe(strategy.set(), update, t);
  }
  // Compare against a direct recomputation over the set.
  std::vector<double> mean(4 * 2, 0.0);
  for (const auto& fv : strategy.set().entries()) {
    for (std::size_t i = 0; i < fv.window.size(); ++i) {
      mean[i] += fv.window.at_flat(i);
    }
  }
  for (double& m : mean) m /= static_cast<double>(strategy.set().size());
  const std::vector<double> tracked = detector.CurrentMean();
  ASSERT_EQ(tracked.size(), mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    EXPECT_NEAR(tracked[i], mean[i], 1e-8);
  }
}

// ------------------------------------------------------------- KSWIN ----

TEST(KswinTest, CorruptChannelCountFailsLoad) {
  EXPECT_FALSE(LoadsHugeCountArchive<Kswin>("kswin.v1"));
}

TEST(KswinTest, StableStreamDoesNotFire) {
  Kswin detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 0.0, 1.0, 10000, 300, 9);
  EXPECT_EQ(fired, -1);
}

TEST(KswinTest, DetectsMeanShift) {
  Kswin detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 3.0, 1.0, 150, 400, 10);
  EXPECT_GE(fired, 150);
  EXPECT_NE(fired, -1);
}

TEST(KswinTest, DetectsDistributionChangeWithSameMean) {
  // Uniform-ish vs bimodal with identical mean/variance would be ideal;
  // here a variance change suffices to show distribution sensitivity.
  Kswin detector;
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 0.0, 4.0, 150, 400, 11);
  EXPECT_NE(fired, -1);
}

TEST(KswinTest, CheckEveryThrottlesTests) {
  Kswin::Params params;
  params.check_every = 10;
  Kswin detector(params);
  OpCounters counters;
  detector.AttachOpCounters(&counters);
  const std::int64_t fired =
      FirstDetection(&detector, 0.0, 1.0, 0.0, 1.0, 10000, 240, 12);
  EXPECT_EQ(fired, -1);
  // 200 post-warm-up steps with stride 10 -> 20 sweeps. A stride-1
  // detector performs 10x the work; just assert the tallies are plausibly
  // throttled (non-zero but far below the per-step regime).
  Kswin detector_full;
  OpCounters counters_full;
  detector_full.AttachOpCounters(&counters_full);
  FirstDetection(&detector_full, 0.0, 1.0, 0.0, 1.0, 10000, 240, 12);
  EXPECT_GT(counters.comparisons, 0u);
  EXPECT_LT(counters.comparisons * 5, counters_full.comparisons);
}

TEST(KswinTest, ReferenceSnapshotTakenAtFinetune) {
  Kswin detector;
  SlidingWindow strategy(6);
  Rng rng(13);
  for (std::int64_t t = 0; t < 6; ++t) {
    const auto update =
        strategy.Offer(GaussianWindow(&rng, 3, 2, 0, 1, t), 0.0);
    detector.Observe(strategy.set(), update, t);
  }
  EXPECT_TRUE(detector.reference().empty());
  detector.OnFinetune(strategy.set(), 5);
  ASSERT_EQ(detector.reference().size(), 2u);           // per channel
  EXPECT_EQ(detector.reference()[0].size(), 6u * 3u);   // m * w values
}

TEST(KswinDeathTest, InvalidAlphaAborts) {
  Kswin::Params params;
  params.alpha = 0.0;
  EXPECT_DEATH(Kswin detector(params), "");
}

// The paper's headline Task-2 finding: both detectors respond to the same
// drifts. Sweep drift magnitudes and check agreement on "was a drift
// detected at all".
class Task2AgreementTest : public ::testing::TestWithParam<double> {};

TEST_P(Task2AgreementTest, MuSigmaAndKswinAgreeOnClearDrifts) {
  const double shift = GetParam();
  MuSigmaChange mu_sigma;
  Kswin kswin;
  const std::int64_t fired_mu =
      FirstDetection(&mu_sigma, 0.0, 1.0, shift, 1.0, 150, 450, 21);
  const std::int64_t fired_ks =
      FirstDetection(&kswin, 0.0, 1.0, shift, 1.0, 150, 450, 21);
  EXPECT_NE(fired_mu, -1) << "shift=" << shift;
  EXPECT_NE(fired_ks, -1) << "shift=" << shift;
}

INSTANTIATE_TEST_SUITE_P(Shifts, Task2AgreementTest,
                         ::testing::Values(2.0, 3.0, 5.0));

}  // namespace
}  // namespace streamad::strategies
