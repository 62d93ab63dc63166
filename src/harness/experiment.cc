#include "src/harness/experiment.h"

#include <memory>

#include "src/common/check.h"
#include "src/metrics/nab_score.h"
#include "src/metrics/pr_auc.h"
#include "src/metrics/precision_recall.h"
#include "src/metrics/vus.h"

namespace streamad::harness {

std::vector<int> RunTrace::AlignedLabels(
    const data::LabeledSeries& series) const {
  STREAMAD_CHECK(first_scored + scores.size() <= series.labels.size());
  return std::vector<int>(
      series.labels.begin() + static_cast<std::ptrdiff_t>(first_scored),
      series.labels.begin() +
          static_cast<std::ptrdiff_t>(first_scored + scores.size()));
}

obs::RecorderOptions ToRecorderOptions(const RunOptions& options) {
  obs::RecorderOptions recorder_options;
  recorder_options.trace = options.trace;
  recorder_options.trace_sample_every = options.trace_sample_every;
  recorder_options.label = options.label;
  recorder_options.flight_capacity = options.flight_capacity;
  recorder_options.score_analytics = options.score_analytics;
  recorder_options.analytics = options.analytics;
  if (options.flight_capacity > 0 && !options.flight_dump_dir.empty()) {
    recorder_options.flight_dump_path = options.flight_dump_dir + "/flight_" +
                                        SanitizeRunLabel(options.label) +
                                        ".jsonl";
  }
  return recorder_options;
}

RunTrace RunDetector(core::StreamingDetector* detector,
                     const data::LabeledSeries& series,
                     const RunOptions& options) {
  STREAMAD_CHECK(detector != nullptr);
  // A pre-built recorder wins; otherwise a registry requests a run-scoped
  // recorder built from the remaining fields.
  obs::Recorder* recorder = options.recorder;
  std::unique_ptr<obs::Recorder> owned;
  if (recorder == nullptr && options.metrics != nullptr) {
    owned = std::make_unique<obs::Recorder>(options.metrics,
                                            ToRecorderOptions(options));
    recorder = owned.get();
  }
  if (recorder != nullptr) detector->set_recorder(recorder);
  RunTrace trace;
  bool any_scored = false;
  for (std::size_t t = 0; t < series.length(); ++t) {
    const core::StreamingDetector::StepResult result =
        detector->Step(series.At(t));
    if (result.scored) {
      if (!any_scored) {
        trace.first_scored = t;
        any_scored = true;
      }
      trace.scores.push_back(result.anomaly_score);
      trace.nonconformities.push_back(result.nonconformity);
      if (result.finetuned) {
        trace.finetune_steps.push_back(static_cast<std::int64_t>(t));
      }
    }
  }
  if (recorder != nullptr) {
    trace.stage_totals = recorder->totals();
    trace.has_telemetry = true;
    detector->set_recorder(nullptr);
  }
  STREAMAD_CHECK_MSG(any_scored,
                     "series shorter than warm-up + initial training");
  return trace;
}

MetricSummary MetricSummary::Mean(const std::vector<MetricSummary>& parts) {
  STREAMAD_CHECK(!parts.empty());
  MetricSummary mean;
  for (const MetricSummary& part : parts) {
    mean.precision += part.precision;
    mean.recall += part.recall;
    mean.pr_auc += part.pr_auc;
    mean.vus += part.vus;
    mean.nab += part.nab;
  }
  const double inv = 1.0 / static_cast<double>(parts.size());
  mean.precision *= inv;
  mean.recall *= inv;
  mean.pr_auc *= inv;
  mean.vus *= inv;
  mean.nab *= inv;
  return mean;
}

std::string SanitizeRunLabel(const std::string& label) {
  std::string sanitized = label;
  for (char& c : sanitized) {
    const bool keep = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    if (!keep) c = '_';
  }
  return sanitized;
}

MetricSummary Evaluate(const RunTrace& trace,
                       const data::LabeledSeries& series) {
  const std::vector<int> labels = trace.AlignedLabels(series);
  MetricSummary summary;
  const metrics::BestOperatingPoint op =
      metrics::BestF1OperatingPoint(trace.scores, labels);
  summary.precision = op.precision;
  summary.recall = op.recall;
  summary.pr_auc = metrics::RangePrAuc(trace.scores, labels);
  summary.vus = metrics::VolumeUnderPrSurface(trace.scores, labels);
  // NAB shares the range-PR operating point; point-wise counting then
  // produces the paper's "high precision, very negative NAB" disparity for
  // detectors that flood long predicted intervals.
  summary.nab = metrics::NabScoreAt(trace.scores, labels, op.threshold);
  return summary;
}

MetricSummary EvaluateAlgorithmOnCorpus(const core::AlgorithmSpec& spec,
                                        core::ScoreType score,
                                        const data::Corpus& corpus,
                                        const EvalConfig& config) {
  STREAMAD_CHECK(!corpus.series.empty());
  std::vector<MetricSummary> parts;
  std::size_t series_index = 0;
  for (const data::LabeledSeries& series : corpus.series) {
    auto detector =
        core::BuildDetector(spec, score, config.params, config.seed);
    // One recorder per run (when the registry is set); the shared registry
    // aggregates across the parallel sweep's threads.
    RunOptions run = config.run;
    run.label = core::SpecLabel(spec) + "/" + core::ToString(score) + "/s" +
                std::to_string(series_index);
    const RunTrace trace = RunDetector(detector.get(), series, run);
    parts.push_back(Evaluate(trace, series));
    ++series_index;
  }
  return MetricSummary::Mean(parts);
}

MetricSummary EvaluateTable3Row(const core::AlgorithmSpec& spec,
                                const data::Corpus& corpus,
                                const EvalConfig& config) {
  const MetricSummary avg = EvaluateAlgorithmOnCorpus(
      spec, core::ScoreType::kAverage, corpus, config);
  const MetricSummary likelihood = EvaluateAlgorithmOnCorpus(
      spec, core::ScoreType::kAnomalyLikelihood, corpus, config);
  return MetricSummary::Mean({avg, likelihood});
}

ScoreAblation EvaluateScoreAblation(const data::Corpus& corpus,
                                    const EvalConfig& config) {
  ScoreAblation ablation;
  std::vector<MetricSummary> raw;
  std::vector<MetricSummary> average;
  std::vector<MetricSummary> likelihood;
  for (const core::AlgorithmSpec& spec : core::AllPaperAlgorithms()) {
    raw.push_back(EvaluateAlgorithmOnCorpus(spec, core::ScoreType::kRaw,
                                            corpus, config));
    average.push_back(EvaluateAlgorithmOnCorpus(
        spec, core::ScoreType::kAverage, corpus, config));
    likelihood.push_back(EvaluateAlgorithmOnCorpus(
        spec, core::ScoreType::kAnomalyLikelihood, corpus, config));
  }
  ablation.raw = MetricSummary::Mean(raw);
  ablation.average = MetricSummary::Mean(average);
  ablation.anomaly_likelihood = MetricSummary::Mean(likelihood);
  return ablation;
}

}  // namespace streamad::harness
