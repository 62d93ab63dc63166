#include "src/stats/running_stats.h"

#include <cmath>

#include "src/common/check.h"

namespace streamad::stats {

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  const double v = m2_ / static_cast<double>(count_);
  return v < 0.0 ? 0.0 : v;  // clamp tiny negative values from cancellation
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Push(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Remove(double x) {
  STREAMAD_CHECK_MSG(count_ > 0, "Remove from empty RunningStats");
  if (count_ == 1) {
    Clear();
    return;
  }
  const double old_mean = mean_;
  const std::size_t new_count = count_ - 1;
  mean_ = (mean_ * static_cast<double>(count_) - x) /
          static_cast<double>(new_count);
  m2_ -= (x - old_mean) * (x - mean_);
  if (m2_ < 0.0) m2_ = 0.0;
  count_ = new_count;
}

void RunningStats::RebuildFrom(const std::vector<double>& values) {
  Clear();
  for (double v : values) Push(v);
}

void RunningStats::Clear() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

void VectorRunningStats::Push(const std::vector<double>& x) {
  STREAMAD_CHECK(x.size() == dims_.size());
  for (std::size_t i = 0; i < x.size(); ++i) dims_[i].Push(x[i]);
}

void VectorRunningStats::Remove(const std::vector<double>& x) {
  STREAMAD_CHECK(x.size() == dims_.size());
  for (std::size_t i = 0; i < x.size(); ++i) dims_[i].Remove(x[i]);
}

std::vector<double> VectorRunningStats::Mean() const {
  std::vector<double> out(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) out[i] = dims_[i].mean();
  return out;
}

double VectorRunningStats::StddevNorm() const {
  double s = 0.0;
  for (const auto& d : dims_) s += d.variance();
  return std::sqrt(s);
}

void VectorRunningStats::Clear() {
  for (auto& d : dims_) d.Clear();
}

}  // namespace streamad::stats
