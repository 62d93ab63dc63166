#ifndef STREAMAD_OBS_RECORDER_H_
#define STREAMAD_OBS_RECORDER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "src/common/op_counters.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/score_analytics.h"
#include "src/obs/stage.h"
#include "src/obs/step_observation.h"
#include "src/obs/timer.h"

namespace streamad::obs {

/// Per-run aggregate of one recorder: where the run's wall-clock went.
struct StageTotals {
  std::array<std::uint64_t, kNumStages> ns{};      // total per stage
  std::array<std::uint64_t, kNumStages> spans{};   // span count per stage
  std::uint64_t steps = 0;
  std::uint64_t scored_steps = 0;
  std::uint64_t finetunes = 0;
  std::uint64_t fits = 0;

  std::uint64_t StageNs(Stage stage) const {
    return ns[static_cast<std::size_t>(stage)];
  }
  std::uint64_t StageSpans(Stage stage) const {
    return spans[static_cast<std::size_t>(stage)];
  }
  /// Sum over all stages (≈ instrumented wall-clock of the run).
  std::uint64_t TotalNs() const;
};

/// Serialised JSONL sink. One instance may be shared by many recorders
/// (the parallel sweep); `Write` appends one line under a mutex.
class TraceSink {
 public:
  /// The sink does not own `out`; it must outlive the sink.
  explicit TraceSink(std::ostream* out);

  void Write(const std::string& line);

  /// Lines written so far (drives downstream sampling diagnostics).
  std::uint64_t lines() const { return lines_.Value(); }

 private:
  std::ostream* out_;
  std::mutex mutex_;
  Counter lines_;
};

struct RecorderOptions {
  /// Structured-trace sink; null disables per-step JSONL records.
  TraceSink* trace = nullptr;
  /// Emit every Nth scored step into the trace (1 = every step). Steps
  /// that trigger a fine-tune are always emitted regardless of sampling —
  /// they are the events drift analyses need.
  std::size_t trace_sample_every = 1;
  /// Optional run label stamped into every trace record (`"run":...`),
  /// e.g. the Table I algorithm label.
  std::string label;
  /// Flight recorder ring capacity: retain the last N steps of full
  /// pipeline state (0 disables the flight recorder entirely).
  std::size_t flight_capacity = 0;
  /// Dump path for the flight recorder. A non-empty path registers the
  /// ring for `STREAMAD_CHECK`-failure crash dumps and (by default) dumps
  /// it after every finetune event.
  std::string flight_dump_path;
  /// Rewrite `flight_dump_path` whenever a step fine-tunes, so the file
  /// always holds the pipeline state around the most recent drift event.
  bool flight_dump_on_finetune = true;
  /// Attach detection-quality analytics (score quantiles, EWMA baseline,
  /// anomaly rate/log, drift gauge) updated on every step. Read back via
  /// `Recorder::score_analytics()`.
  bool score_analytics = false;
  /// Tuning for the analytics when attached.
  ScoreAnalyticsOptions analytics;
};

/// Per-detector telemetry front-end. A recorder belongs to exactly one
/// `core::StreamingDetector` and is driven from that detector's thread;
/// the registry and trace sink behind it are shared and thread-safe, so
/// parallel sweeps attach one recorder per run to one registry.
///
/// Attaching a recorder never changes detector arithmetic — it only reads
/// the clock and tallies. Detector output with and without a recorder is
/// bit-identical (tested in tests/obs_test.cc).
class Recorder {
 public:
  /// `registry` must outlive the recorder. Instruments are resolved once
  /// here; the hot path never touches the registry mutex.
  explicit Recorder(MetricsRegistry* registry, RecorderOptions options = {});

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// --- called by the detector pipeline -------------------------------
  void BeginStep();
  void RecordStage(Stage stage, std::uint64_t elapsed_ns);
  /// Called by the serving layer (fleet shard worker) just before the
  /// `Step` that consumes a queued event: feeds the `queue_wait` stage
  /// instruments immediately and holds the value pending so `BeginStep`
  /// attributes it to that step's trace / flight record — ingress wait and
  /// compute stages then decompose one event end to end.
  void RecordQueueWait(std::uint64_t elapsed_ns);
  void OnFit();
  void EndStep(const StepObservation& step);

  /// Table II op tallies; the detector attaches this to its drift
  /// detector so per-step deltas are mirrored into the registry counters.
  OpCounters* op_counters() { return &op_counters_; }

  /// --- read side ------------------------------------------------------
  const StageTotals& totals() const { return totals_; }

  /// Null when no flight recorder ring / score analytics are attached.
  FlightRecorder* flight_recorder() { return flight_.get(); }
  const FlightRecorder* flight_recorder() const { return flight_.get(); }
  ScoreAnalytics* score_analytics() { return analytics_.get(); }
  const ScoreAnalytics* score_analytics() const { return analytics_.get(); }

  /// True when some consumer (flight ring or score analytics) retains the
  /// digest part of each `StepObservation`; the detector uses this to skip
  /// computing the input digest and drift statistic when nobody keeps them.
  bool wants_step_digest() const {
    return flight_ != nullptr || analytics_ != nullptr;
  }

  /// Latency histogram bucket upper bounds (nanoseconds) shared by every
  /// stage histogram.
  static const std::vector<double>& LatencyBucketsNs();

 private:
  RecorderOptions options_;

  std::array<Histogram*, kNumStages> stage_ns_;
  std::array<QuantileSketch*, kNumStages> stage_ns_sketch_;
  Counter* steps_total_;
  Counter* scored_steps_total_;
  Counter* finetunes_total_;
  Counter* fits_total_;
  Counter* anomalies_total_;
  Counter* op_additions_total_;
  Counter* op_multiplications_total_;
  Counter* op_comparisons_total_;

  OpCounters op_counters_;
  OpCounters mirrored_ops_;  // high-water mark already forwarded

  StageTotals totals_;
  std::array<std::uint64_t, kNumStages> step_ns_{};  // scratch, one step
  std::uint64_t pending_queue_wait_ns_ = 0;  // claimed by the next BeginStep
  std::uint64_t sample_cursor_ = 0;

  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<ScoreAnalytics> analytics_;
};

/// RAII stage span: measures one pipeline stage of one step and reports it
/// to the recorder. Null recorder = fully inert (no clock read).
class StageSpan {
 public:
  StageSpan(Recorder* recorder, Stage stage)
      : recorder_(recorder),
        stage_(stage),
        start_ns_(recorder ? NowNs() : 0) {}
  ~StageSpan() {
    if (recorder_ != nullptr) {
      recorder_->RecordStage(stage_, NowNs() - start_ns_);
    }
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Recorder* recorder_;
  Stage stage_;
  std::uint64_t start_ns_;
};

}  // namespace streamad::obs

#endif  // STREAMAD_OBS_RECORDER_H_
