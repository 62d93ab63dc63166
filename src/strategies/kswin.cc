#include "src/strategies/kswin.h"

#include "src/common/check.h"
#include "src/stats/ks_test.h"

namespace streamad::strategies {

Kswin::Kswin() : Kswin(Params()) {}

Kswin::Kswin(const Params& params) : params_(params) {
  STREAMAD_CHECK(params.alpha > 0.0 && params.alpha < 1.0);
  STREAMAD_CHECK(params.check_every >= 1);
}

void Kswin::Observe(const core::TrainingSet& /*set*/,
                    const core::TrainingSetUpdate& /*update*/,
                    std::int64_t /*t*/) {}

bool Kswin::ShouldFinetune(const core::TrainingSet& set, std::int64_t /*t*/) {
  if (!has_reference_ || set.empty()) return false;
  if (++steps_since_check_ < params_.check_every) return false;
  steps_since_check_ = 0;

  const std::size_t channels = set.at(0).channels();
  STREAMAD_CHECK(channels == reference_channels_.size());
  last_statistic_ = 0.0;  // max KS distance of this sweep (observability)
  for (std::size_t j = 0; j < channels; ++j) {
    const std::vector<double> current = set.PooledChannel(j);
    if (current.empty() || reference_channels_[j].empty()) continue;
    // Repeated-testing correction α* = α / r (Raab et al.) with r the
    // pooled sample size of the current training set.
    const double alpha_star =
        params_.alpha / static_cast<double>(current.size());
    const stats::KsResult result = stats::TwoSampleKsTest(
        reference_channels_[j], current, alpha_star, counters_);
    if (result.statistic > last_statistic_) last_statistic_ = result.statistic;
    if (result.reject) return true;
  }
  return false;
}

void Kswin::OnFinetune(const core::TrainingSet& set, std::int64_t /*t*/) {
  if (set.empty()) return;
  const std::size_t channels = set.at(0).channels();
  reference_channels_.assign(channels, {});
  for (std::size_t j = 0; j < channels; ++j) {
    reference_channels_[j] = set.PooledChannel(j);
  }
  has_reference_ = true;
  steps_since_check_ = 0;
}


bool Kswin::SaveState(io::BinaryWriter* writer) const {
  STREAMAD_CHECK(writer != nullptr);
  writer->WriteString("kswin.v1");
  writer->WriteU64(reference_channels_.size());
  for (const std::vector<double>& channel : reference_channels_) {
    writer->WriteDoubleVec(channel);
  }
  writer->WriteU64(has_reference_ ? 1 : 0);
  writer->WriteI64(steps_since_check_);
  return writer->ok();
}

bool Kswin::LoadState(io::BinaryReader* reader) {
  STREAMAD_CHECK(reader != nullptr);
  std::uint64_t channels = 0;
  if (!reader->ExpectString("kswin.v1") || !reader->ReadU64(&channels)) {
    return false;
  }
  // Grown per entry read, so a corrupt count fails at the first missing
  // read instead of sizing an allocation.
  std::vector<std::vector<double>> reference;
  for (std::uint64_t j = 0; j < channels; ++j) {
    if (!reader->ReadDoubleVec(&reference.emplace_back())) return false;
  }
  std::uint64_t has_reference = 0;
  std::int64_t since_check = 0;
  if (!reader->ReadU64(&has_reference) || !reader->ReadI64(&since_check)) {
    return false;
  }
  reference_channels_ = std::move(reference);
  has_reference_ = has_reference != 0;
  steps_since_check_ = since_check;
  return true;
}

}  // namespace streamad::strategies
