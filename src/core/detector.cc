#include "src/core/detector.h"

#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/core/detector_config.h"
#include "src/obs/recorder.h"

namespace streamad::core {

double Model::AnomalyScore(const FeatureVector& /*x*/) {
  STREAMAD_CHECK_MSG(false, "AnomalyScore called on a prediction model");
  return 0.0;
}

Status Model::SaveState(io::BinaryWriter* /*writer*/) const {
  return Status::Unimplemented(std::string(name()) +
                               " does not support checkpointing");
}

Status Model::LoadState(io::BinaryReader* /*reader*/) {
  return Status::Unimplemented(std::string(name()) +
                               " does not support checkpointing");
}

WindowRepresentation::WindowRepresentation(std::size_t window)
    : window_(window) {
  STREAMAD_CHECK_MSG(window > 0, "window must be positive");
}

void WindowRepresentation::Observe(const StreamVector& s) {
  STREAMAD_CHECK_MSG(!s.empty(), "empty stream vector");
  if (channels_ == 0) {
    channels_ = s.size();
  } else {
    STREAMAD_CHECK_MSG(s.size() == channels_, "channel count changed");
  }
  buffer_.push_back(s);
  if (buffer_.size() > window_) buffer_.pop_front();
}

FeatureVector WindowRepresentation::Current(std::int64_t t) const {
  STREAMAD_CHECK_MSG(Ready(), "window not yet full");
  FeatureVector fv;
  fv.window = linalg::Matrix(window_, channels_);
  for (std::size_t r = 0; r < window_; ++r) {
    fv.window.SetRow(r, buffer_[r]);
  }
  fv.t = t;
  return fv;
}

StreamingDetector::StreamingDetector(
    const DetectorConfig& config, std::unique_ptr<TrainingSetStrategy> strategy,
    std::unique_ptr<DriftDetector> drift, std::unique_ptr<Model> model,
    std::unique_ptr<NonconformityMeasure> nonconformity,
    std::unique_ptr<AnomalyScorer> scorer)
    : window_(config.window),
      initial_train_steps_(config.initial_train_steps),
      finetuning_enabled_(config.finetuning_enabled),
      representation_(config.window),
      strategy_(std::move(strategy)),
      drift_(std::move(drift)),
      model_(std::move(model)),
      nonconformity_(std::move(nonconformity)),
      scorer_(std::move(scorer)) {
  STREAMAD_CHECK(strategy_ != nullptr);
  STREAMAD_CHECK(drift_ != nullptr);
  STREAMAD_CHECK(model_ != nullptr);
  STREAMAD_CHECK(nonconformity_ != nullptr);
  STREAMAD_CHECK(scorer_ != nullptr);
  STREAMAD_CHECK_MSG(initial_train_steps_ > 0,
                     "initial training phase must be non-empty");
}

void WindowRepresentation::Save(io::BinaryWriter* writer) const {
  STREAMAD_CHECK(writer != nullptr);
  writer->WriteU64(window_);
  writer->WriteU64(channels_);
  writer->WriteU64(buffer_.size());
  for (const StreamVector& s : buffer_) writer->WriteDoubleVec(s);
}

Status WindowRepresentation::Load(io::BinaryReader* reader) {
  STREAMAD_CHECK(reader != nullptr);
  std::uint64_t window = 0;
  std::uint64_t channels = 0;
  std::uint64_t size = 0;
  if (!reader->ReadU64(&window) || !reader->ReadU64(&channels) ||
      !reader->ReadU64(&size)) {
    return Status::DataLoss("window ring header truncated");
  }
  if (window != window_) {
    return Status::FailedPrecondition(
        "window mismatch: archived " + std::to_string(window) +
        ", configured " + std::to_string(window_));
  }
  if (size > window) {
    return Status::DataLoss("window ring longer than its window length");
  }
  std::deque<StreamVector> buffer;
  for (std::uint64_t i = 0; i < size; ++i) {
    StreamVector s;
    if (!reader->ReadDoubleVec(&s) || s.size() != channels) {
      return Status::DataLoss("window ring entry " + std::to_string(i) +
                              " truncated or channel count inconsistent");
    }
    buffer.push_back(std::move(s));
  }
  channels_ = channels;
  buffer_ = std::move(buffer);
  return Status::Ok();
}

Status StreamingDetector::SaveState(std::ostream* out) const {
  STREAMAD_CHECK(out != nullptr);
  io::BinaryWriter writer(out);
  writer.WriteString("streamad.detector.v1");
  writer.WriteU64(window_);
  writer.WriteU64(initial_train_steps_);
  writer.WriteU64(finetuning_enabled_ ? 1 : 0);
  writer.WriteI64(t_);
  writer.WriteI64(scorable_steps_);
  writer.WriteU64(trained_ ? 1 : 0);
  writer.WriteI64(finetune_count_);
  representation_.Save(&writer);
  if (!strategy_->SaveState(&writer)) {
    return Status::Unimplemented(
        "training-set strategy does not support checkpointing");
  }
  if (!drift_->SaveState(&writer)) {
    return Status::Unimplemented(
        "drift detector does not support checkpointing");
  }
  if (!scorer_->SaveState(&writer)) {
    return Status::Unimplemented(
        "anomaly scorer does not support checkpointing");
  }
  if (!writer.ok()) return Status::IoError("checkpoint stream write failed");
  // The model exists meaningfully only after the initial fit; LoadState
  // mirrors this condition.
  if (trained_) {
    if (Status status = model_->SaveState(&writer); !status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

Status StreamingDetector::LoadState(std::istream* in) {
  STREAMAD_CHECK(in != nullptr);
  io::BinaryReader reader(in);
  std::uint64_t window = 0;
  std::uint64_t initial = 0;
  std::uint64_t finetuning = 0;
  std::int64_t t = 0;
  std::int64_t scorable = 0;
  std::uint64_t trained = 0;
  std::int64_t finetunes = 0;
  if (!reader.ExpectString("streamad.detector.v1")) {
    return Status::DataLoss("not a streamad.detector.v1 archive");
  }
  if (!reader.ReadU64(&window) || !reader.ReadU64(&initial) ||
      !reader.ReadU64(&finetuning) || !reader.ReadI64(&t) ||
      !reader.ReadI64(&scorable) || !reader.ReadU64(&trained) ||
      !reader.ReadI64(&finetunes)) {
    return Status::DataLoss("checkpoint header truncated");
  }
  // Checkpoints from a differently configured detector are rejected before
  // any component state is touched.
  if (window != window_) {
    return Status::FailedPrecondition(
        "window mismatch: archived " + std::to_string(window) +
        ", configured " + std::to_string(window_));
  }
  if (initial != initial_train_steps_) {
    return Status::FailedPrecondition(
        "initial_train_steps mismatch: archived " + std::to_string(initial) +
        ", configured " + std::to_string(initial_train_steps_));
  }
  if (Status status = representation_.Load(&reader); !status.ok()) {
    return status;
  }
  if (!strategy_->LoadState(&reader)) {
    return Status::DataLoss("training-set strategy state corrupt or foreign");
  }
  if (!drift_->LoadState(&reader)) {
    return Status::DataLoss("drift-detector state corrupt or foreign");
  }
  if (!scorer_->LoadState(&reader)) {
    return Status::DataLoss("anomaly-scorer state corrupt or foreign");
  }
  if (trained != 0) {
    if (Status status = model_->LoadState(&reader); !status.ok()) {
      return status;
    }
  }
  finetuning_enabled_ = finetuning != 0;
  t_ = t;
  scorable_steps_ = scorable;
  trained_ = trained != 0;
  finetune_count_ = finetunes;
  return Status::Ok();
}

void StreamingDetector::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  // Route the drift detector's Table II tallies into the recorder so op
  // counts and latencies land in one registry export.
  drift_->AttachOpCounters(recorder == nullptr ? nullptr
                                               : recorder->op_counters());
}

// STREAMAD_HOT: the one producer of `obs::StepObservation`, run at the
// end of every step that has a recorder attached or a caller asking.
void StreamingDetector::FinishStep(const StreamVector& s,
                                   const StepResult& result,
                                   obs::StepObservation* requested) {
  if (recorder_ == nullptr && requested == nullptr) return;
  obs::StepObservation local;
  obs::StepObservation& step = requested != nullptr ? *requested : local;
  step.t = t_;
  step.scored = result.scored;
  step.finetuned = result.finetuned;
  step.nonconformity = result.nonconformity;
  step.anomaly_score = result.anomaly_score;
  // `Observe` already rejected an empty `s`.
  if (requested != nullptr || recorder_->wants_step_digest()) {
    double min = s[0];
    double max = s[0];
    double sum = 0.0;
    for (const double v : s) {
      if (v < min) min = v;
      if (v > max) max = v;
      sum += v;
    }
    step.input_min = min;
    step.input_max = max;
    step.input_mean = sum / static_cast<double>(s.size());
    step.drift_statistic = drift_->DriftStatistic();
    step.train_size = strategy_->set().size();
  }
  if (recorder_ != nullptr) recorder_->EndStep(step);
}

StreamingDetector::StepResult StreamingDetector::Step(
    const StreamVector& s, obs::StepObservation* observation) {
  ++t_;
  if (recorder_ != nullptr) recorder_->BeginStep();
  StepResult result;

  FeatureVector x;
  bool ready = false;
  {
    obs::StageSpan span(recorder_, obs::Stage::kRepresentation);
    representation_.Observe(s);
    ready = representation_.Ready();
    if (ready) x = representation_.Current(t_);
  }
  if (!ready) {  // warm-up
    FinishStep(s, result, observation);
    return result;
  }
  ++scorable_steps_;

  if (!trained_) {
    // Initial phase: accumulate the training set, then fit once.
    TrainingSetUpdate update;
    {
      obs::StageSpan span(recorder_, obs::Stage::kTrainOffer);
      update = strategy_->Offer(x, /*anomaly_score=*/0.0);
    }
    {
      obs::StageSpan span(recorder_, obs::Stage::kDriftCheck);
      drift_->Observe(strategy_->set(), update, t_);
    }
    if (scorable_steps_ >= static_cast<std::int64_t>(initial_train_steps_) &&
        !strategy_->set().empty()) {
      {
        obs::StageSpan span(recorder_, obs::Stage::kFit);
        model_->Fit(strategy_->set());
      }
      drift_->OnFinetune(strategy_->set(), t_);
      scorer_->Reset();
      trained_ = true;
      if (recorder_ != nullptr) recorder_->OnFit();
    }
    FinishStep(s, result, observation);
    return result;
  }

  // Streaming phase: score, update the training set, maybe fine-tune.
  result.scored = true;
  {
    obs::StageSpan span(recorder_, obs::Stage::kNonconformity);
    result.nonconformity = nonconformity_->Score(x, model_.get());
  }
  {
    obs::StageSpan span(recorder_, obs::Stage::kScoring);
    result.anomaly_score = scorer_->Update(result.nonconformity);
  }

  TrainingSetUpdate update;
  {
    obs::StageSpan span(recorder_, obs::Stage::kTrainOffer);
    update = strategy_->Offer(x, result.anomaly_score);
  }
  bool should_finetune = false;
  {
    obs::StageSpan span(recorder_, obs::Stage::kDriftCheck);
    drift_->Observe(strategy_->set(), update, t_);
    should_finetune =
        finetuning_enabled_ && drift_->ShouldFinetune(strategy_->set(), t_);
  }

  if (should_finetune) {
    obs::StageSpan span(recorder_, obs::Stage::kFinetune);
    model_->Finetune(strategy_->set());
    drift_->OnFinetune(strategy_->set(), t_);
    ++finetune_count_;
    result.finetuned = true;
  }
  FinishStep(s, result, observation);
  return result;
}

}  // namespace streamad::core
