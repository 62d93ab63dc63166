#include "src/strategies/mu_sigma_change.h"

#include <cmath>

#include "src/common/check.h"

namespace streamad::strategies {

std::vector<double> MuSigmaChange::Flatten(const core::FeatureVector& fv) {
  return fv.window.data();
}

void MuSigmaChange::EnsureDim(std::size_t dim) {
  if (running_.dim() != dim) {
    STREAMAD_CHECK_MSG(running_.dim() == 0, "feature dimension changed");
    running_ = stats::VectorRunningStats(dim);
  }
}

void MuSigmaChange::Observe(const core::TrainingSet& /*set*/,
                            const core::TrainingSetUpdate& update,
                            std::int64_t /*t*/) {
  if (update.removed) {
    const std::vector<double> old_flat = Flatten(update.removed_value);
    EnsureDim(old_flat.size());
    running_.Remove(old_flat);
    if (counters_ != nullptr) {
      counters_->additions += 4 * old_flat.size();
      counters_->multiplications += 3 * old_flat.size();
    }
  }
  if (update.inserted) {
    const std::vector<double> new_flat = Flatten(update.inserted_value);
    EnsureDim(new_flat.size());
    running_.Push(new_flat);
    if (counters_ != nullptr) {
      counters_->additions += 4 * new_flat.size();
      counters_->multiplications += 2 * new_flat.size();
    }
  }
}

bool MuSigmaChange::ShouldFinetune(const core::TrainingSet& set,
                                   std::int64_t /*t*/) {
  if (!has_reference_ || set.size() < 2) return false;
  const std::vector<double> mean = running_.Mean();
  STREAMAD_CHECK(mean.size() == reference_mean_.size());
  double dist2 = 0.0;
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double d = mean[i] - reference_mean_[i];
    dist2 += d * d;
  }
  const double sigma_now = running_.StddevNorm();
  if (counters_ != nullptr) {
    counters_->additions += 2 * mean.size();
    counters_->multiplications += mean.size();
    counters_->comparisons += 3;
  }
  const double dist = std::sqrt(dist2);
  // Cache the normalised mean shift for the flight recorder; purely
  // observational (reads state ShouldFinetune already computed).
  last_statistic_ = reference_sigma_ > 0.0 ? dist / reference_sigma_ : dist;
  if (dist > reference_sigma_) return true;
  if (reference_sigma_ > 0.0 &&
      (sigma_now > 2.0 * reference_sigma_ ||
       sigma_now < 0.5 * reference_sigma_)) {
    return true;
  }
  return false;
}

void MuSigmaChange::OnFinetune(const core::TrainingSet& set, std::int64_t t) {
  (void)t;
  // Rebuild the running statistics from scratch: numerically fresh and it
  // also absorbs the inserted-element tracking (Observe only handles
  // removals incrementally; inserts are folded in here and in the rebuild
  // below). See header for the trigger definition.
  if (set.empty()) return;
  const std::size_t dim = set.at(0).window.size();
  EnsureDim(dim);
  running_.Clear();
  for (const core::FeatureVector& fv : set.entries()) {
    running_.Push(Flatten(fv));
  }
  reference_mean_ = running_.Mean();
  reference_sigma_ = running_.StddevNorm();
  has_reference_ = true;
}


bool MuSigmaChange::SaveState(io::BinaryWriter* writer) const {
  STREAMAD_CHECK(writer != nullptr);
  writer->WriteString("musigma.v1");
  writer->WriteU64(running_.dim());
  for (std::size_t i = 0; i < running_.dim(); ++i) {
    const stats::RunningStats& dim = running_.dim_stats(i);
    writer->WriteU64(dim.count());
    writer->WriteDouble(dim.mean());
    writer->WriteDouble(dim.raw_m2());
  }
  writer->WriteDoubleVec(reference_mean_);
  writer->WriteDouble(reference_sigma_);
  writer->WriteU64(has_reference_ ? 1 : 0);
  return writer->ok();
}

bool MuSigmaChange::LoadState(io::BinaryReader* reader) {
  STREAMAD_CHECK(reader != nullptr);
  std::uint64_t dim = 0;
  if (!reader->ExpectString("musigma.v1") || !reader->ReadU64(&dim)) {
    return false;
  }
  // Grown per entry read, so a corrupt count fails at the first missing
  // read instead of sizing an allocation.
  std::vector<stats::RunningStats> dims;
  for (std::uint64_t i = 0; i < dim; ++i) {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    if (!reader->ReadU64(&count) || !reader->ReadDouble(&mean) ||
        !reader->ReadDouble(&m2)) {
      return false;
    }
    dims.emplace_back().Restore(count, mean, m2);
  }
  std::vector<double> reference_mean;
  double reference_sigma = 0.0;
  std::uint64_t has_reference = 0;
  if (!reader->ReadDoubleVec(&reference_mean) ||
      !reader->ReadDouble(&reference_sigma) ||
      !reader->ReadU64(&has_reference)) {
    return false;
  }
  running_ = stats::VectorRunningStats(std::move(dims));
  reference_mean_ = std::move(reference_mean);
  reference_sigma_ = reference_sigma;
  has_reference_ = has_reference != 0;
  return true;
}

}  // namespace streamad::strategies
