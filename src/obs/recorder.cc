#include "src/obs/recorder.h"

#include "src/common/check.h"
#include "src/obs/step_json.h"

namespace streamad::obs {
namespace {

constexpr const char* kStageNames[kNumStages] = {
    "queue_wait",  "representation", "nonconformity", "scoring",
    "train_offer", "drift_check",    "finetune",      "fit",
};

std::string StageHistogramName(Stage stage) {
  return std::string("streamad_stage_") + StageName(stage) + "_ns";
}

std::string StageSketchName(Stage stage) {
  return StageHistogramName(stage) + "_summary";
}

}  // namespace

const char* StageName(Stage stage) {
  const std::size_t index = static_cast<std::size_t>(stage);
  STREAMAD_CHECK(index < kNumStages);
  return kStageNames[index];
}

std::uint64_t StageTotals::TotalNs() const {
  std::uint64_t total = 0;
  for (const std::uint64_t stage_ns : ns) total += stage_ns;
  return total;
}

TraceSink::TraceSink(std::ostream* out) : out_(out) {
  STREAMAD_CHECK(out != nullptr);
}

void TraceSink::Write(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
  lines_.Increment();
}

const std::vector<double>& Recorder::LatencyBucketsNs() {
  // Quasi-logarithmic 100ns .. 1s: fine enough to separate a cheap window
  // push (sub-µs) from a neural fine-tune (ms..s) in one shared layout.
  static const std::vector<double> buckets = {
      100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
      2.5e5, 5e5,   1e6,   2.5e6, 5e6, 1e7, 5e7, 1e8,   5e8, 1e9,
  };
  return buckets;
}

Recorder::Recorder(MetricsRegistry* registry, RecorderOptions options)
    : options_(std::move(options)) {
  STREAMAD_CHECK(registry != nullptr);
  STREAMAD_CHECK_MSG(options_.trace_sample_every > 0,
                     "trace_sample_every must be >= 1");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stage_ns_[i] = registry->GetHistogram(
        StageHistogramName(static_cast<Stage>(i)), LatencyBucketsNs());
    stage_ns_sketch_[i] = registry->GetSketch(StageSketchName(static_cast<Stage>(i)));
  }
  if (options_.flight_capacity > 0) {
    flight_ = std::make_unique<FlightRecorder>(options_.flight_capacity);
    flight_->set_label(options_.label);
    if (!options_.flight_dump_path.empty()) {
      flight_->set_dump_path(options_.flight_dump_path);
    }
  }
  if (options_.score_analytics) {
    analytics_ = std::make_unique<ScoreAnalytics>(options_.analytics);
  }
  steps_total_ = registry->GetCounter("streamad_detector_steps_total");
  scored_steps_total_ =
      registry->GetCounter("streamad_detector_scored_steps_total");
  finetunes_total_ = registry->GetCounter("streamad_detector_finetunes_total");
  fits_total_ = registry->GetCounter("streamad_detector_fits_total");
  anomalies_total_ =
      registry->GetCounter("streamad_detector_anomalies_total");
  op_additions_total_ =
      registry->GetCounter("streamad_drift_op_additions_total");
  op_multiplications_total_ =
      registry->GetCounter("streamad_drift_op_multiplications_total");
  op_comparisons_total_ =
      registry->GetCounter("streamad_drift_op_comparisons_total");
}

void Recorder::BeginStep() {
  step_ns_.fill(0);
  // Queue wait recorded since the last step belongs to THIS step: the
  // fleet stamps it right before calling `Step` on the dequeued event.
  step_ns_[static_cast<std::size_t>(Stage::kQueueWait)] =
      pending_queue_wait_ns_;
  pending_queue_wait_ns_ = 0;
  steps_total_->Increment();
  ++totals_.steps;
}

void Recorder::RecordStage(Stage stage, std::uint64_t elapsed_ns) {
  const std::size_t index = static_cast<std::size_t>(stage);
  stage_ns_[index]->Observe(static_cast<double>(elapsed_ns));
  stage_ns_sketch_[index]->Observe(static_cast<double>(elapsed_ns));
  step_ns_[index] += elapsed_ns;
  totals_.ns[index] += elapsed_ns;
  ++totals_.spans[index];
}

void Recorder::RecordQueueWait(std::uint64_t elapsed_ns) {
  const std::size_t index = static_cast<std::size_t>(Stage::kQueueWait);
  stage_ns_[index]->Observe(static_cast<double>(elapsed_ns));
  stage_ns_sketch_[index]->Observe(static_cast<double>(elapsed_ns));
  totals_.ns[index] += elapsed_ns;
  ++totals_.spans[index];
  pending_queue_wait_ns_ += elapsed_ns;
}

void Recorder::OnFit() {
  fits_total_->Increment();
  ++totals_.fits;
}

void Recorder::EndStep(const StepObservation& step) {
  if (step.scored) {
    scored_steps_total_->Increment();
    ++totals_.scored_steps;
  }
  if (step.finetuned) {
    finetunes_total_->Increment();
    ++totals_.finetunes;
  }

  // Mirror the drift detector's Table II tallies into the registry as
  // monotonic counters (delta since the last step).
  op_additions_total_->Add(op_counters_.additions - mirrored_ops_.additions);
  op_multiplications_total_->Add(op_counters_.multiplications -
                                 mirrored_ops_.multiplications);
  op_comparisons_total_->Add(op_counters_.comparisons -
                             mirrored_ops_.comparisons);
  mirrored_ops_ = op_counters_;

  if (analytics_ != nullptr && analytics_->OnStep(step)) {
    anomalies_total_->Increment();
  }

  if (flight_ != nullptr) {
    flight_->Record(FlightRecord{step, step_ns_});
    if (step.finetuned && options_.flight_dump_on_finetune) {
      flight_->DumpToPath("finetune");
    }
  }

  if (options_.trace == nullptr) return;
  bool emit = step.finetuned;
  if (step.scored) {
    emit = emit || (sample_cursor_ % options_.trace_sample_every) == 0;
    ++sample_cursor_;
  }
  if (!emit) return;

  std::string line;
  line.reserve(256);
  line += '{';
  AppendStepJson(options_.label, step, &line);
  AppendStageNsJson(step_ns_, &line);
  line += '}';
  options_.trace->Write(line);
}

}  // namespace streamad::obs
