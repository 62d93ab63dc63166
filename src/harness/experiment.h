#ifndef STREAMAD_HARNESS_EXPERIMENT_H_
#define STREAMAD_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/algorithm_spec.h"
#include "src/data/series.h"
#include "src/obs/recorder.h"

namespace streamad::harness {

/// The per-step trace of one detector run over one series.
struct RunTrace {
  /// Anomaly scores `f_t` for the scored suffix of the series.
  std::vector<double> scores;
  /// Nonconformity scores `a_t`, aligned with `scores`.
  std::vector<double> nonconformities;
  /// Index of the first scored step within the series.
  std::size_t first_scored = 0;
  /// Steps (series indices) at which a fine-tune was triggered.
  std::vector<std::int64_t> finetune_steps;

  /// Per-stage wall-clock totals of the run; populated (and
  /// `has_telemetry` set) when the run was instrumented with a recorder.
  obs::StageTotals stage_totals;
  bool has_telemetry = false;

  /// The ground-truth labels aligned with `scores`.
  std::vector<int> AlignedLabels(const data::LabeledSeries& series) const;
};

/// Observability attachments for one detector run. This is the ONE place
/// where telemetry wiring is described — shared by `RunDetector`, the
/// sweep drivers (via `EvalConfig::run`) and the serving layer's sessions
/// (`serve::SessionConfig::run`) — so the registry / trace / flight knobs
/// cannot drift between the harness and `obs::RecorderOptions` again.
struct RunOptions {
  /// When set, the run is instrumented with an `obs::Recorder` on this
  /// registry (thread-safe; concurrent runs may share it). Not owned.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional shared JSONL trace sink (requires `metrics`). Not owned.
  obs::TraceSink* trace = nullptr;
  /// Trace sampling: every Nth scored step per run (fine-tune steps are
  /// always traced). 64 bounds trace volume during full-table sweeps.
  std::size_t trace_sample_every = 64;
  /// Flight recorder ring capacity per run (0 disables). Requires
  /// `metrics`. The recorder retains the last N steps of full pipeline
  /// state (src/obs/flight_recorder.h).
  std::size_t flight_capacity = 0;
  /// Directory for flight dumps. When non-empty (and `flight_capacity >
  /// 0`), the ring is dumped to `<dir>/flight_<sanitised label>.jsonl` on
  /// fine-tunes and on `STREAMAD_CHECK` failures. Must already exist.
  std::string flight_dump_dir;
  /// Label stamped on trace records and flight dump file names; sweep
  /// drivers derive it per run ("<spec>/<score>/s<series>").
  std::string label;
  /// Attach per-run detection-quality analytics (score quantiles, EWMA
  /// baseline, anomaly rate/log); read back via
  /// `Recorder::score_analytics()`. Requires `metrics`.
  bool score_analytics = false;
  /// Tuning for the analytics when attached.
  obs::ScoreAnalyticsOptions analytics;
  /// Escape hatch: attach THIS pre-built recorder instead of constructing
  /// one from the fields above (which are then ignored). Not owned.
  obs::Recorder* recorder = nullptr;
};

/// Expands `options` into per-run `obs::RecorderOptions` (label and flight
/// dump path derivation). The single conversion point between the harness
/// and the obs layer.
obs::RecorderOptions ToRecorderOptions(const RunOptions& options);

/// Streams `series` through `detector` and records the trace. When
/// `options` request telemetry (a registry or a pre-built recorder), the
/// recorder is attached for the duration of the run (detached afterwards)
/// and its per-stage totals are copied into the returned trace.
RunTrace RunDetector(core::StreamingDetector* detector,
                     const data::LabeledSeries& series,
                     const RunOptions& options = RunOptions());

/// One Table III cell: the five reported metrics.
struct MetricSummary {
  double precision = 0.0;
  double recall = 0.0;
  double pr_auc = 0.0;
  double vus = 0.0;
  double nab = 0.0;

  /// Elementwise mean of summaries (series / scorer averaging).
  static MetricSummary Mean(const std::vector<MetricSummary>& parts);
};

/// Evaluates a scored trace against the series labels. Precision / recall
/// and NAB are reported at the best-F1 threshold of the range-PR sweep
/// (one shared operating point), PR-AUC and VUS are threshold-free.
MetricSummary Evaluate(const RunTrace& trace,
                       const data::LabeledSeries& series);

/// Shared configuration of the Table III / ablation sweeps.
struct EvalConfig {
  core::DetectorConfig params;
  std::uint64_t seed = 7;

  /// Per-run observability attachments. The sweep stamps a fresh
  /// `RunOptions::label` per (spec, score, series) run; everything else is
  /// forwarded verbatim to `RunDetector`.
  RunOptions run;
};

/// `label` with every character outside `[A-Za-z0-9_.-]` replaced by '_',
/// safe to embed in a file name (run labels contain '/' separators).
std::string SanitizeRunLabel(const std::string& label);

/// Builds a fresh detector for (spec, score), runs every series of the
/// corpus and averages the metrics.
MetricSummary EvaluateAlgorithmOnCorpus(const core::AlgorithmSpec& spec,
                                        core::ScoreType score,
                                        const data::Corpus& corpus,
                                        const EvalConfig& config);

/// One row of Table III: the metrics averaged over the two anomaly scores
/// (average / anomaly likelihood), exactly as the paper reports them.
MetricSummary EvaluateTable3Row(const core::AlgorithmSpec& spec,
                                const data::Corpus& corpus,
                                const EvalConfig& config);

/// The anomaly-score ablation rows at the bottom of Table III: one summary
/// per score type, averaged over all 26 algorithms of Table I.
struct ScoreAblation {
  MetricSummary raw;
  MetricSummary average;
  MetricSummary anomaly_likelihood;
};

ScoreAblation EvaluateScoreAblation(const data::Corpus& corpus,
                                    const EvalConfig& config);

}  // namespace streamad::harness

#endif  // STREAMAD_HARNESS_EXPERIMENT_H_
