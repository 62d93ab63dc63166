// Tests for the observability layer (src/obs): instrument semantics,
// concurrent aggregation, exporter golden output, and — the load-bearing
// guarantee — that attaching a recorder never changes detector output.

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/algorithm_spec.h"
#include "src/data/daphnet_like.h"
#include "src/harness/experiment.h"
#include "src/harness/parallel.h"
#include "src/obs/metrics.h"
#include "src/obs/quantile_sketch.h"
#include "src/obs/recorder.h"

namespace streamad {
namespace {

// --- instrument semantics --------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram histogram({1.0, 10.0, 100.0});
  for (const double value : {0.5, 1.0, 5.0, 10.0, 100.0, 101.0}) {
    histogram.Observe(value);
  }
  const obs::Histogram::Snapshot snap = histogram.Snap();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.bucket_counts[0], 2u);      // 0.5, 1.0  (le = 1)
  EXPECT_EQ(snap.bucket_counts[1], 2u);      // 5, 10     (le = 10)
  EXPECT_EQ(snap.bucket_counts[2], 1u);      // 100       (le = 100)
  EXPECT_EQ(snap.bucket_counts[3], 1u);      // 101       (overflow)
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 217.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 101.0);
}

TEST(CounterTest, MergesAcrossParallelForThreads) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("streamad_test_total");
  harness::ParallelFor(64, [&](std::size_t) {
    for (int i = 0; i < 1000; ++i) counter->Increment();
  });
  EXPECT_EQ(counter->Value(), 64000u);
}

TEST(HistogramTest, ObserveIsThreadSafe) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.GetHistogram("streamad_test_ns", {10.0, 20.0});
  harness::ParallelFor(32, [&](std::size_t i) {
    histogram->Observe(static_cast<double>(i));
  });
  const obs::Histogram::Snapshot snap = histogram->Snap();
  EXPECT_EQ(snap.count, 32u);
  EXPECT_DOUBLE_EQ(snap.sum, 496.0);  // 0 + 1 + ... + 31
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 31.0);
}

TEST(HistogramTest, MinMaxIgnoreUntouchedShards) {
  // Regression: shard min/max used to be seeded from a racy branch on the
  // first observation, so an untouched shard could leak its seed value into
  // Snap(). With identity seeding (±inf) a positive-only stream must never
  // report min == 0.
  obs::Histogram histogram({1.0});
  histogram.Observe(5.0);
  histogram.Observe(7.0);
  const obs::Histogram::Snapshot snap = histogram.Snap();
  EXPECT_DOUBLE_EQ(snap.min, 5.0);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
}

TEST(HistogramTest, ParallelMinRespectsLowerBound) {
  // All observed values are >= 100; under the old first-observation seeding
  // a race could report a smaller min. Run enough concurrent observers that
  // every shard sees its first value under contention.
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.GetHistogram("streamad_minmax_ns", {1.0});
  harness::ParallelFor(64, [&](std::size_t i) {
    for (int k = 0; k < 100; ++k) {
      histogram->Observe(100.0 + static_cast<double>(i));
    }
  });
  const obs::Histogram::Snapshot snap = histogram->Snap();
  EXPECT_EQ(snap.count, 6400u);
  EXPECT_GE(snap.min, 100.0);
  EXPECT_DOUBLE_EQ(snap.max, 163.0);
}

TEST(QuantileSketchTest, ConcurrentObserversNeverCorruptTheSketch) {
  // The P² markers serialise on an internal mutex; hammer one sketch from
  // many threads and check the exact aggregates (count/sum/min/max) and
  // that the quantile estimates stay inside the observed range.
  obs::MetricsRegistry registry;
  obs::QuantileSketch* sketch = registry.GetSketch("streamad_p2_ns_summary");
  constexpr std::size_t kThreads = 16;
  constexpr int kPerThread = 500;
  harness::ParallelFor(kThreads, [&](std::size_t i) {
    for (int k = 0; k < kPerThread; ++k) {
      sketch->Observe(10.0 + static_cast<double>((i * 37 + static_cast<std::size_t>(k) * 11) % 100));
    }
  });
  const obs::QuantileSketch::Snapshot snap = sketch->Snap();
  EXPECT_EQ(snap.count, kThreads * static_cast<std::uint64_t>(kPerThread));
  EXPECT_GE(snap.min, 10.0);
  EXPECT_LE(snap.max, 109.0);
  EXPECT_GT(snap.sum, 0.0);
  double previous = snap.min;
  for (const double estimate : snap.values) {
    EXPECT_GE(estimate, snap.min);
    EXPECT_LE(estimate, snap.max);
    EXPECT_GE(estimate, previous);  // p50 <= p90 <= p99 <= p999
    previous = estimate;
  }
}

TEST(QuantileSketchTest, SnapMidFeedIsACoherentPrefix) {
  // A scrape racing a writer must see some prefix of the stream: count,
  // sum and the range have to agree with each other at every snapshot.
  obs::QuantileSketch sketch;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int k = 1; k <= 20000; ++k) {
      sketch.Observe(static_cast<double>(k % 1000) + 1.0);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    const obs::QuantileSketch::Snapshot snap = sketch.Snap();
    if (snap.count == 0) continue;
    EXPECT_GE(snap.min, 1.0);
    EXPECT_LE(snap.max, 1000.0);
    EXPECT_GE(snap.sum, snap.min * static_cast<double>(snap.count) - 1e-9);
    EXPECT_LE(snap.sum, snap.max * static_cast<double>(snap.count) + 1e-9);
  }
  writer.join();
  EXPECT_EQ(sketch.Snap().count, 20000u);
}

TEST(QuantileSketchTest, ResetStartsAFreshWindow) {
  obs::QuantileSketch sketch;
  for (int k = 0; k < 100; ++k) sketch.Observe(1000.0);
  ASSERT_EQ(sketch.Snap().count, 100u);

  sketch.Reset();
  const obs::QuantileSketch::Snapshot empty = sketch.Snap();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.sum, 0.0);

  // Post-reset observations behave as if freshly constructed: no bleed
  // from the 1000.0 era (below five samples the estimate is exact).
  for (int k = 0; k < 4; ++k) sketch.Observe(2.0);
  const obs::QuantileSketch::Snapshot fresh = sketch.Snap();
  EXPECT_EQ(fresh.count, 4u);
  EXPECT_DOUBLE_EQ(fresh.min, 2.0);
  EXPECT_DOUBLE_EQ(fresh.max, 2.0);
  EXPECT_DOUBLE_EQ(fresh.p50(), 2.0);
  EXPECT_DOUBLE_EQ(fresh.p999(), 2.0);
}

TEST(QuantileSketchTest, ResetRacingObserversLosesNoObservationHalves) {
  // Scrape-and-reset window contract: with writers running, every
  // observation lands entirely in one window. After the writers finish, a
  // final reset + quiet snapshot must be exactly empty (no torn state).
  obs::MetricsRegistry registry;
  obs::QuantileSketch* sketch = registry.GetSketch("streamad_reset_summary");
  std::atomic<std::uint64_t> written{0};
  harness::ParallelFor(8, [&](std::size_t i) {
    if (i == 0) {
      for (int r = 0; r < 50; ++r) {
        sketch->Reset();
        const obs::QuantileSketch::Snapshot snap = sketch->Snap();
        // Whatever the writers did, each window is internally consistent.
        if (snap.count > 0) {
          EXPECT_GE(snap.min, 5.0);
          EXPECT_LE(snap.max, 5.0);
        }
      }
    } else {
      for (int k = 0; k < 2000; ++k) {
        sketch->Observe(5.0);
        written.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Relaxed: the thread join above already ordered the writes.
  EXPECT_EQ(written.load(std::memory_order_relaxed), 7u * 2000u);
  sketch->Reset();
  const obs::QuantileSketch::Snapshot quiet = sketch->Snap();
  EXPECT_EQ(quiet.count, 0u);
  EXPECT_EQ(quiet.sum, 0.0);
}

TEST(RegistryTest, InstrumentsAreSingletonsByName) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a_total"), registry.GetCounter("a_total"));
  EXPECT_EQ(registry.GetHistogram("h_ns", {1.0}),
            registry.GetHistogram("h_ns", {1.0}));
  EXPECT_NE(registry.GetCounter("a_total"), registry.GetCounter("b_total"));
}

// --- exporters -------------------------------------------------------------

TEST(RegistryTest, TextExpositionGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("streamad_test_total")->Add(3);
  registry.GetGauge("streamad_test_gauge")->Set(2.5);
  obs::Histogram* histogram =
      registry.GetHistogram("streamad_test_ns", {1.0, 2.0});
  histogram->Observe(0.5);
  histogram->Observe(1.5);
  histogram->Observe(5.0);

  const std::string expected =
      "# TYPE streamad_test_total counter\n"
      "streamad_test_total 3\n"
      "# TYPE streamad_test_gauge gauge\n"
      "streamad_test_gauge 2.5\n"
      "# TYPE streamad_test_ns histogram\n"
      "streamad_test_ns_bucket{le=\"1\"} 1\n"
      "streamad_test_ns_bucket{le=\"2\"} 2\n"
      "streamad_test_ns_bucket{le=\"+Inf\"} 3\n"
      "streamad_test_ns_sum 7\n"
      "streamad_test_ns_count 3\n";
  EXPECT_EQ(registry.DumpText(), expected);
}

TEST(RecorderTest, JsonlTraceGolden) {
  obs::MetricsRegistry registry;
  std::ostringstream sink_stream;
  obs::TraceSink sink(&sink_stream);
  obs::RecorderOptions options;
  options.trace = &sink;
  options.label = "golden";
  obs::Recorder recorder(&registry, std::move(options));

  recorder.BeginStep();
  recorder.RecordStage(obs::Stage::kRepresentation, 100);
  recorder.RecordStage(obs::Stage::kNonconformity, 250);
  recorder.EndStep(
      {.t = 0, .scored = true, .nonconformity = 0.25, .anomaly_score = 0.5});

  EXPECT_EQ(sink_stream.str(),
            "{\"run\":\"golden\",\"t\":0,\"scored\":true,"
            "\"a\":0.25,\"f\":0.5,\"finetuned\":false,"
            "\"stage_ns\":{\"representation\":100,\"nonconformity\":250}}\n");
  EXPECT_EQ(sink.lines(), 1u);
}

TEST(RecorderTest, TraceSamplingKeepsEveryNthStepAndAllFinetunes) {
  obs::MetricsRegistry registry;
  std::ostringstream sink_stream;
  obs::TraceSink sink(&sink_stream);
  obs::RecorderOptions options;
  options.trace = &sink;
  options.trace_sample_every = 4;
  obs::Recorder recorder(&registry, std::move(options));

  for (std::int64_t t = 0; t < 8; ++t) {
    recorder.BeginStep();
    recorder.EndStep({.t = t, .scored = true});
  }
  EXPECT_EQ(sink.lines(), 2u);  // t = 0 and t = 4

  recorder.BeginStep();
  recorder.EndStep({.t = 8, .scored = true, .finetuned = true});
  EXPECT_EQ(sink.lines(), 3u);  // fine-tunes bypass sampling
  EXPECT_NE(sink_stream.str().find("\"finetuned\":true"), std::string::npos);
}

TEST(RecorderTest, ParallelSweepTraceLinesMatchEmittedRecords) {
  // A Table-III-style sweep: many recorders share one sink, each sampling
  // its own scored steps. The sink's line counter must equal the number of
  // JSONL records in the stream, and every fine-tune step must be present
  // despite `trace_sample_every > 1`.
  obs::MetricsRegistry registry;
  std::ostringstream sink_stream;
  obs::TraceSink sink(&sink_stream);
  constexpr std::size_t kRuns = 8;
  constexpr std::int64_t kSteps = 101;
  harness::ParallelFor(kRuns, [&](std::size_t r) {
    obs::RecorderOptions options;
    options.trace = &sink;
    options.trace_sample_every = 7;
    options.label = "run" + std::to_string(r);
    obs::Recorder recorder(&registry, std::move(options));
    for (std::int64_t t = 0; t < kSteps; ++t) {
      recorder.BeginStep();
      recorder.EndStep({.t = t, .scored = true, .finetuned = (t % 25) == 24});
    }
  });
  // Per run: scored-step cursors 0,7,...,98 are sampled (15 records) and
  // fine-tunes fire at t = 24, 49, 74, 99 — t=49 is already sampled, so
  // three extra records. 18 per run across 8 runs.
  const std::string text = sink_stream.str();
  std::size_t record_count = 0;
  for (const char c : text) record_count += c == '\n' ? 1 : 0;
  EXPECT_EQ(sink.lines(), kRuns * 18u);
  EXPECT_EQ(record_count, sink.lines());
  std::size_t finetune_records = 0;
  for (std::size_t pos = text.find("\"finetuned\":true");
       pos != std::string::npos;
       pos = text.find("\"finetuned\":true", pos + 1)) {
    ++finetune_records;
  }
  EXPECT_EQ(finetune_records, kRuns * 4u);
}

// --- detector integration --------------------------------------------------

core::DetectorConfig SmallParams() {
  core::DetectorConfig params;
  params.window = 10;
  params.train_capacity = 40;
  params.initial_train_steps = 120;
  params.scorer_k = 20;
  params.scorer_k_short = 4;
  return params;
}

data::LabeledSeries SmallSeries(std::uint64_t seed = 3) {
  data::GeneratorConfig gen;
  gen.length = 700;
  gen.normal_prefix = 250;
  gen.num_series = 1;
  gen.num_anomalies = 2;
  gen.seed = seed;
  return data::MakeDaphnetLike(gen).series[0];
}

TEST(RecorderDetectorTest, AttachedRecorderLeavesScoresBitIdentical) {
  const core::AlgorithmSpec spec{core::ModelType::kOnlineArima,
                                 core::Task1::kSlidingWindow,
                                 core::Task2::kMuSigma};
  const core::DetectorConfig params = SmallParams();
  const data::LabeledSeries series = SmallSeries();

  auto plain = core::BuildDetector(spec, core::ScoreType::kAverage, params,
                                   /*seed=*/11);
  auto instrumented = core::BuildDetector(spec, core::ScoreType::kAverage,
                                          params, /*seed=*/11);
  obs::MetricsRegistry registry;
  std::ostringstream sink_stream;
  obs::TraceSink sink(&sink_stream);
  obs::RecorderOptions options;
  options.trace = &sink;
  obs::Recorder recorder(&registry, std::move(options));
  instrumented->set_recorder(&recorder);

  std::size_t scored = 0;
  for (std::size_t t = 0; t < series.length(); ++t) {
    const auto a = plain->Step(series.At(t));
    const auto b = instrumented->Step(series.At(t));
    ASSERT_EQ(a.scored, b.scored) << "step " << t;
    ASSERT_EQ(a.finetuned, b.finetuned) << "step " << t;
    // Bit-identical, not approximately equal: the recorder must not
    // perturb a single floating-point operation.
    ASSERT_EQ(a.nonconformity, b.nonconformity) << "step " << t;
    ASSERT_EQ(a.anomaly_score, b.anomaly_score) << "step " << t;
    scored += a.scored ? 1 : 0;
  }
  ASSERT_GT(scored, 0u);
  EXPECT_GT(sink.lines(), 0u);
}

TEST(RecorderDetectorTest, CoversAllPipelineStagesPlusFitAndFinetune) {
  // Regular-interval Task 2 fine-tunes deterministically, so every stage
  // of the taxonomy fires within a short run.
  const core::AlgorithmSpec spec{core::ModelType::kOnlineArima,
                                 core::Task1::kSlidingWindow,
                                 core::Task2::kRegular};
  const core::DetectorConfig params = SmallParams();
  const data::LabeledSeries series = SmallSeries();

  auto detector = core::BuildDetector(spec, core::ScoreType::kAverage, params,
                                      /*seed=*/11);
  obs::MetricsRegistry registry;
  obs::Recorder recorder(&registry);
  detector->set_recorder(&recorder);
  for (std::size_t t = 0; t < series.length(); ++t) {
    detector->Step(series.At(t));
  }

  const obs::StageTotals& totals = recorder.totals();
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    if (stage == obs::Stage::kQueueWait) {
      // Serving-only stage: a bare detector run never sees an ingress
      // queue, so it must stay at zero here (the fleet tests cover it).
      EXPECT_EQ(totals.StageSpans(stage), 0u);
      continue;
    }
    EXPECT_GT(totals.StageSpans(stage), 0u) << obs::StageName(stage);
  }
  EXPECT_EQ(totals.steps, series.length());
  EXPECT_EQ(totals.fits, 1u);
  EXPECT_GT(totals.finetunes, 0u);
  EXPECT_EQ(totals.finetunes,
            static_cast<std::uint64_t>(detector->finetune_count()));

  // Every stage histogram and counter appears in the text exposition.
  const std::string exposition = registry.DumpText();
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const std::string name = std::string("streamad_stage_") +
                             obs::StageName(static_cast<obs::Stage>(i)) +
                             "_ns";
    EXPECT_NE(exposition.find(name + "_count"), std::string::npos) << name;
  }
  EXPECT_NE(exposition.find("streamad_detector_steps_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("streamad_detector_finetunes_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("streamad_detector_fits_total"),
            std::string::npos);
}

TEST(RecorderDetectorTest, MirrorsDriftOpCountersIntoRegistry) {
  const core::AlgorithmSpec spec{core::ModelType::kOnlineArima,
                                 core::Task1::kSlidingWindow,
                                 core::Task2::kMuSigma};
  auto detector = core::BuildDetector(spec, core::ScoreType::kAverage,
                                      SmallParams(), /*seed=*/11);
  obs::MetricsRegistry registry;
  obs::Recorder recorder(&registry);
  detector->set_recorder(&recorder);
  const data::LabeledSeries series = SmallSeries();
  for (std::size_t t = 0; t < series.length(); ++t) {
    detector->Step(series.At(t));
  }
  // μ/σ-Change performs per-step additions/multiplications (Table II);
  // the registry counters mirror the attached OpCounters tallies exactly.
  EXPECT_GT(registry.GetCounter("streamad_drift_op_additions_total")->Value(),
            0u);
  EXPECT_EQ(registry.GetCounter("streamad_drift_op_additions_total")->Value(),
            recorder.op_counters()->additions);
  EXPECT_EQ(
      registry.GetCounter("streamad_drift_op_multiplications_total")->Value(),
      recorder.op_counters()->multiplications);
}

TEST(HarnessTest, RunDetectorFillsTraceTelemetry) {
  const core::AlgorithmSpec spec{core::ModelType::kOnlineArima,
                                 core::Task1::kSlidingWindow,
                                 core::Task2::kMuSigma};
  auto detector = core::BuildDetector(spec, core::ScoreType::kAverage,
                                      SmallParams(), /*seed=*/11);
  const data::LabeledSeries series = SmallSeries();
  obs::MetricsRegistry registry;
  obs::Recorder recorder(&registry);
  harness::RunOptions run;
  run.recorder = &recorder;
  const harness::RunTrace trace =
      harness::RunDetector(detector.get(), series, run);
  EXPECT_TRUE(trace.has_telemetry);
  EXPECT_EQ(trace.stage_totals.steps, series.length());
  EXPECT_EQ(trace.stage_totals.scored_steps, trace.scores.size());
  EXPECT_GT(trace.stage_totals.TotalNs(), 0u);
  // The recorder is detached afterwards.
  EXPECT_EQ(detector->recorder(), nullptr);

  // Un-instrumented runs advertise no telemetry.
  auto fresh = core::BuildDetector(spec, core::ScoreType::kAverage,
                                   SmallParams(), /*seed=*/11);
  const harness::RunTrace plain = harness::RunDetector(fresh.get(), series);
  EXPECT_FALSE(plain.has_telemetry);
}

TEST(HarnessTest, EvalConfigRegistryAggregatesSweepRuns) {
  data::GeneratorConfig gen;
  gen.length = 700;
  gen.normal_prefix = 250;
  gen.num_series = 2;
  gen.num_anomalies = 2;
  gen.seed = 3;
  const data::Corpus corpus = data::MakeDaphnetLike(gen);

  harness::EvalConfig config;
  config.params = SmallParams();
  config.seed = 11;
  obs::MetricsRegistry registry;
  std::ostringstream sink_stream;
  obs::TraceSink sink(&sink_stream);
  config.run.metrics = &registry;
  config.run.trace = &sink;
  config.run.trace_sample_every = 100;

  const core::AlgorithmSpec spec{core::ModelType::kOnlineArima,
                                 core::Task1::kSlidingWindow,
                                 core::Task2::kMuSigma};
  (void)harness::EvaluateAlgorithmOnCorpus(spec, core::ScoreType::kAverage,
                                           corpus, config);
  // Two series → the shared registry saw both runs' steps.
  EXPECT_EQ(registry.GetCounter("streamad_detector_steps_total")->Value(),
            2u * gen.length);
  // Trace records carry the sweep's run label.
  EXPECT_NE(sink_stream.str().find("\"run\":\"Online-ARIMA"),
            std::string::npos);
}

}  // namespace
}  // namespace streamad
