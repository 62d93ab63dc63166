// Tests for the deep-introspection layer: P² quantile sketches against a
// sorted oracle, the flight-recorder ring semantics, JSONL dump round-trips
// through the `streamad_inspect` parser, and the STREAMAD_CHECK crash-dump
// hook. Links both `streamad` (producers) and `streamad_inspect_core`
// (consumer) so the dump formats are pinned from both ends.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/algorithm_spec.h"
#include "src/data/daphnet_like.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/quantile_sketch.h"
#include "src/obs/recorder.h"
#include "tools/inspect/trace_reader.h"

namespace streamad {
namespace {

// --- P² quantile sketch ----------------------------------------------------

// Exact quantile by sorted linear interpolation at rank q * (n - 1) — the
// same convention P2Quantile uses below five samples.
double SortedQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

TEST(P2QuantileTest, ExactBelowFiveSamples) {
  const std::vector<double> samples = {5.0, 1.0, 4.0, 2.0};
  obs::P2Quantile median(0.5);
  std::vector<double> seen;
  for (const double v : samples) {
    median.Observe(v);
    seen.push_back(v);
    EXPECT_DOUBLE_EQ(median.Value(), SortedQuantile(seen, 0.5))
        << "after " << seen.size() << " samples";
  }
}

TEST(P2QuantileTest, ZeroBeforeAnyObservation) {
  EXPECT_DOUBLE_EQ(obs::P2Quantile(0.9).Value(), 0.0);
}

// P²'s error guarantee applies to reasonably smooth distributions; each
// unimodal case here must land within a few percent of the sorted oracle.
// (It is *not* tested on extreme bimodal data — a quantile falling into a
// wide density gap is the algorithm's documented weak spot.)
TEST(P2QuantileTest, TracksSortedOracleOnUnimodalDistributions) {
  constexpr std::size_t kSamples = 20000;
  struct Case {
    const char* name;
    int kind;  // 0 = uniform, 1 = normal, 2 = exponential
  };
  for (const Case& c : {Case{"uniform", 0}, Case{"normal", 1},
                        Case{"exponential", 2}}) {
    SCOPED_TRACE(c.name);
    Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(c.kind));
    std::vector<double> values;
    values.reserve(kSamples);
    obs::QuantileSketch sketch;
    for (std::size_t i = 0; i < kSamples; ++i) {
      double v = 0.0;
      switch (c.kind) {
        case 0: v = rng.Uniform(10.0, 50.0); break;
        case 1: v = rng.Gaussian(100.0, 15.0); break;
        default: v = 1.0 - std::log(1.0 - rng.Uniform(0.0, 1.0)); break;
      }
      values.push_back(v);
      sketch.Observe(v);
    }
    const obs::QuantileSketch::Snapshot snap = sketch.Snap();
    const auto& quantiles = obs::QuantileSketch::Quantiles();
    for (std::size_t qi = 0; qi < obs::QuantileSketch::kNumQuantiles; ++qi) {
      const double exact = SortedQuantile(values, quantiles[qi]);
      const double estimate = snap.values[qi];
      EXPECT_NEAR(estimate, exact, 0.05 * std::abs(exact))
          << "q=" << quantiles[qi];
    }
    // Estimates must be monotone in the quantile rank.
    EXPECT_LE(snap.p50(), snap.p90());
    EXPECT_LE(snap.p90(), snap.p99());
    EXPECT_LE(snap.p99(), snap.p999());
  }
}

TEST(QuantileSketchTest, AggregatesAreExact) {
  obs::QuantileSketch sketch;
  for (const double v : {3.0, 1.0, 4.0, 1.5}) sketch.Observe(v);
  const obs::QuantileSketch::Snapshot snap = sketch.Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 9.5);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
}

TEST(QuantileSketchTest, RegistrySketchesEmitSummaryExposition) {
  obs::MetricsRegistry registry;
  obs::QuantileSketch* sketch = registry.GetSketch("streamad_demo_ns_summary");
  EXPECT_EQ(sketch, registry.GetSketch("streamad_demo_ns_summary"));
  for (int i = 1; i <= 100; ++i) sketch->Observe(static_cast<double>(i));
  const std::string exposition = registry.DumpText();
  EXPECT_NE(exposition.find("# TYPE streamad_demo_ns_summary summary"),
            std::string::npos);
  EXPECT_NE(exposition.find("streamad_demo_ns_summary{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("streamad_demo_ns_summary{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("streamad_demo_ns_summary_count 100"),
            std::string::npos);
}

// --- flight recorder -------------------------------------------------------

obs::FlightRecord MakeRecord(std::int64_t t) {
  obs::FlightRecord record;
  record.step = {.t = t,
                 .scored = true,
                 .finetuned = (t % 10) == 9,
                 .nonconformity = 0.25 + 0.001 * static_cast<double>(t),
                 .anomaly_score = 0.5 + 0.002 * static_cast<double>(t),
                 .input_min = -1.0,
                 .input_max = 2.0,
                 .input_mean = 0.125,
                 .drift_statistic = 1.75,
                 .train_size = 30 + static_cast<std::uint64_t>(t % 7)};
  record.stage_ns[0] = 100 + static_cast<std::uint64_t>(t);
  record.stage_ns[1] = 250;
  return record;
}

TEST(FlightRecorderTest, RetainsExactlyLastNSteps) {
  constexpr std::size_t kCapacity = 16;
  constexpr std::int64_t kSteps = 50;
  obs::FlightRecorder flight(kCapacity);
  EXPECT_EQ(flight.size(), 0u);
  for (std::int64_t t = 0; t < kSteps; ++t) flight.Record(MakeRecord(t));
  EXPECT_EQ(flight.capacity(), kCapacity);
  EXPECT_EQ(flight.size(), kCapacity);
  EXPECT_EQ(flight.total_recorded(), static_cast<std::uint64_t>(kSteps));
  // Oldest-first iteration over exactly the last `kCapacity` steps.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(flight.At(i).step.t,
              kSteps - static_cast<std::int64_t>(kCapacity) +
                  static_cast<std::int64_t>(i));
  }
}

TEST(FlightRecorderTest, PartialFillKeepsInsertionOrder) {
  obs::FlightRecorder flight(8);
  for (std::int64_t t = 0; t < 3; ++t) flight.Record(MakeRecord(t));
  ASSERT_EQ(flight.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(flight.At(i).step.t, static_cast<std::int64_t>(i));
  }
}

TEST(FlightRecorderTest, DumpRoundTripsThroughInspectParser) {
  obs::FlightRecorder flight(8);
  flight.set_label("roundtrip");
  for (std::int64_t t = 0; t < 12; ++t) flight.Record(MakeRecord(t));

  std::ostringstream out;
  flight.Dump(&out, "unit_test");
  std::istringstream lines(out.str());
  std::string line;
  std::vector<inspect::TraceRecord> parsed;
  while (std::getline(lines, line)) {
    inspect::TraceRecord record;
    std::string error;
    ASSERT_TRUE(inspect::ParseTraceRecord(line, &record, &error))
        << error << "\nline: " << line;
    parsed.push_back(record);
  }
  ASSERT_EQ(parsed.size(), 9u);  // header + 8 retained steps
  EXPECT_EQ(parsed[0].kind, inspect::TraceRecord::Kind::kFlightHeader);
  EXPECT_EQ(parsed[0].run, "roundtrip");
  EXPECT_EQ(parsed[0].reason, "unit_test");
  EXPECT_EQ(parsed[0].capacity, 8u);
  EXPECT_EQ(parsed[0].retained, 8u);
  EXPECT_EQ(parsed[0].total, 12u);
  for (std::size_t i = 1; i < parsed.size(); ++i) {
    const inspect::TraceRecord& step = parsed[i];
    const obs::StepObservation& expected = flight.At(i - 1).step;
    EXPECT_EQ(step.kind, inspect::TraceRecord::Kind::kFlightStep);
    EXPECT_EQ(step.t, expected.t);
    EXPECT_EQ(step.scored, expected.scored);
    EXPECT_EQ(step.finetuned, expected.finetuned);
    // %.17g round-trips doubles exactly.
    EXPECT_EQ(step.nonconformity, expected.nonconformity);
    EXPECT_EQ(step.anomaly_score, expected.anomaly_score);
    EXPECT_EQ(step.input_min, expected.input_min);
    EXPECT_EQ(step.input_max, expected.input_max);
    EXPECT_EQ(step.input_mean, expected.input_mean);
    EXPECT_EQ(step.drift_statistic, expected.drift_statistic);
    EXPECT_EQ(step.train_size, expected.train_size);
    // Zero-ns stages are omitted from the dump; the two non-zero ones
    // survive with their values.
    ASSERT_EQ(step.stage_ns.size(), 2u);
    EXPECT_EQ(step.stage_ns[0].second, flight.At(i - 1).stage_ns[0]);
    EXPECT_EQ(step.stage_ns[1].second, flight.At(i - 1).stage_ns[1]);
  }
}

TEST(FlightRecorderTest, DumpToPathTruncatesAndIsReadable) {
  const std::string path =
      testing::TempDir() + "/streamad_flight_roundtrip.jsonl";
  obs::FlightRecorder flight(4);
  flight.set_label("to_path");
  flight.set_dump_path(path);
  for (std::int64_t t = 0; t < 6; ++t) flight.Record(MakeRecord(t));
  ASSERT_TRUE(flight.DumpToPath("first"));
  ASSERT_TRUE(flight.DumpToPath("second"));  // truncates, not appends

  inspect::TraceFile file;
  std::string error;
  ASSERT_TRUE(inspect::ReadTraceFile(path, {}, &file, &error)) << error;
  EXPECT_EQ(file.parse_errors, 0u);
  ASSERT_EQ(file.records.size(), 5u);  // one header + 4 retained
  EXPECT_EQ(file.records[0].reason, "second");
  EXPECT_EQ(file.records[1].t, 2);  // oldest retained step
  std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, CheckFailureDumpsRegisteredRecorders) {
  const std::string path = testing::TempDir() + "/streamad_flight_crash.jsonl";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        obs::FlightRecorder flight(4);
        flight.set_label("crash");
        flight.set_dump_path(path);
        for (std::int64_t t = 0; t < 6; ++t) flight.Record(MakeRecord(t));
        STREAMAD_CHECK_MSG(false, "introspection crash-dump test");
      },
      "introspection crash-dump test");
  // The death-test child shares the filesystem: the hook must have written
  // a parseable post-mortem before abort().
  inspect::TraceFile file;
  std::string error;
  ASSERT_TRUE(inspect::ReadTraceFile(path, {}, &file, &error)) << error;
  EXPECT_EQ(file.parse_errors, 0u);
  ASSERT_GE(file.records.size(), 2u);
  EXPECT_EQ(file.records[0].kind, inspect::TraceRecord::Kind::kFlightHeader);
  EXPECT_EQ(file.records[0].reason, "check_failure");
  EXPECT_EQ(file.records[0].run, "crash");
  EXPECT_EQ(file.records.size(), 1u + file.records[0].retained);
  std::remove(path.c_str());
}

// --- JSON array parsing (the /anomalies and /sessions/<id> bodies) --------

TEST(JsonParserTest, ParsesTopLevelArrays) {
  inspect::JsonValue value;
  std::string error;
  ASSERT_TRUE(inspect::ParseJsonLine("[1, 2.5, \"x\", null]", &value, &error))
      << error;
  ASSERT_EQ(value.type, inspect::JsonValue::Type::kArray);
  ASSERT_EQ(value.elements.size(), 4u);
  EXPECT_DOUBLE_EQ(value.elements[0].number, 1.0);
  EXPECT_DOUBLE_EQ(value.elements[1].number, 2.5);
  EXPECT_EQ(value.elements[2].text, "x");
  EXPECT_EQ(value.elements[3].type, inspect::JsonValue::Type::kNull);
}

TEST(JsonParserTest, ParsesNestedArraysOfObjects) {
  // The shape streamad_inspect live actually consumes from /anomalies.
  inspect::JsonValue value;
  std::string error;
  ASSERT_TRUE(inspect::ParseJsonLine(
      R"({"k":2,"sessions":[{"id":"a","anomaly_rate":0.25},)"
      R"({"id":"b","anomaly_rate":0.0}],"empty":[]})",
      &value, &error))
      << error;
  const inspect::JsonValue* sessions = value.Find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->type, inspect::JsonValue::Type::kArray);
  ASSERT_EQ(sessions->elements.size(), 2u);
  const inspect::JsonValue* id = sessions->elements[1].Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->text, "b");
  const inspect::JsonValue* rate = sessions->elements[0].Find("anomaly_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->number, 0.25);
  const inspect::JsonValue* empty = value.Find("empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->type, inspect::JsonValue::Type::kArray);
  EXPECT_TRUE(empty->elements.empty());
}

TEST(JsonParserTest, RejectsMalformedArrays) {
  inspect::JsonValue value;
  std::string error;
  EXPECT_FALSE(inspect::ParseJsonLine("[1, 2", &value, &error));
  EXPECT_NE(error.find("array"), std::string::npos);
  error.clear();
  EXPECT_FALSE(inspect::ParseJsonLine("[1 2]", &value, &error));
  EXPECT_NE(error.find("array"), std::string::npos);
  error.clear();
  EXPECT_FALSE(inspect::ParseJsonLine("[1,]", &value, &error));
}

// --- flight drift digest vs the live detector ------------------------------

// The flight ring's `drift_statistic` must be the same number
// `DriftDetector::DriftStatistic()` reports on the live detector at that
// step — for every Task-2 strategy, so an incident dump can be trusted as
// a faithful replica of the drift state the finetune decision saw.
TEST(FlightRecorderTest, DriftStatisticMatchesDetectorForAllTask2) {
  data::GeneratorConfig gen;
  gen.length = 400;
  gen.num_series = 1;
  gen.normal_prefix = 200;
  gen.num_anomalies = 2;
  const data::Corpus corpus = data::MakeDaphnetLike(gen);
  const data::LabeledSeries& series = corpus.series[0];

  core::DetectorConfig params;
  params.window = 10;
  params.train_capacity = 30;
  params.initial_train_steps = 40;
  params.scorer_k = 20;
  params.scorer_k_short = 5;

  const core::Task2 strategies[] = {core::Task2::kRegular,
                                    core::Task2::kMuSigma, core::Task2::kKswin,
                                    core::Task2::kAdwin};
  for (const core::Task2 task2 : strategies) {
    const core::AlgorithmSpec spec{core::ModelType::kNearestNeighbor,
                                   core::Task1::kSlidingWindow, task2};
    SCOPED_TRACE(core::SpecLabel(spec));
    auto detector =
        core::BuildDetector(spec, core::ScoreType::kAverage, params, 77);

    obs::MetricsRegistry registry;
    obs::RecorderOptions options;
    options.flight_capacity = 32;
    obs::Recorder recorder(&registry, std::move(options));
    detector->set_recorder(&recorder);

    // Capture the live statistic right after each step, keyed by t, then
    // check the ring recorded exactly those values.
    std::vector<double> live_by_t(series.length() + 1, 0.0);
    for (std::size_t t = 0; t < series.length(); ++t) {
      detector->Step(series.At(t));
      live_by_t[static_cast<std::size_t>(detector->t())] =
          detector->drift_detector().DriftStatistic();
    }

    const obs::FlightRecorder* flight = recorder.flight_recorder();
    ASSERT_NE(flight, nullptr);
    ASSERT_EQ(flight->size(), 32u);
    for (std::size_t i = 0; i < flight->size(); ++i) {
      const obs::StepObservation& record = flight->At(i).step;
      // Exact comparison on purpose: the ring is a replica, not an estimate.
      EXPECT_EQ(record.drift_statistic,
                live_by_t[static_cast<std::size_t>(record.t)])
          << "t=" << record.t;
    }
  }
}

}  // namespace
}  // namespace streamad
