#ifndef STREAMAD_STATS_RUNNING_STATS_H_
#define STREAMAD_STATS_RUNNING_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace streamad::stats {

/// Scalar running mean / variance with O(1) insert *and* remove.
///
/// The μ/σ-Change drift detector (paper §IV-B, Task 2) has to maintain the
/// mean and standard deviation of a training set whose membership changes by
/// at most one element per time step (insert, or replace = remove + insert).
/// Welford's algorithm supports streaming inserts; removal uses the inverse
/// update. Removal of values that were never inserted is a programming error
/// only in exact arithmetic — numerically it silently degrades, so callers
/// should periodically `RebuildFrom` when exactness matters (the drift
/// detector does this at every fine-tune).
class RunningStats {
 public:
  /// Number of values currently represented.
  std::size_t count() const { return count_; }

  /// Mean of the represented values; 0 when empty.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Population variance; 0 when fewer than 2 values.
  double variance() const;

  /// Population standard deviation.
  double stddev() const;

  /// Adds a value.
  void Push(double x);

  /// Removes a value previously added. Requires `count() > 0`.
  void Remove(double x);

  /// Resets and bulk-loads from `values` (numerically fresh).
  void RebuildFrom(const std::vector<double>& values);

  /// Resets to the empty state.
  void Clear();

  /// Raw accessors / restore hook for checkpointing (io/binary_io.h).
  double raw_m2() const { return m2_; }
  void Restore(std::size_t count, double mean, double m2) {
    count_ = count;
    mean_ = mean;
    m2_ = m2;
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the mean
};

/// Vector-valued running statistics: one `RunningStats` per dimension,
/// updated in lock step. Used for the mean feature vector μ_t ∈ R^{Nw} of
/// the μ/σ-Change strategy.
class VectorRunningStats {
 public:
  VectorRunningStats() = default;

  /// Creates statistics over `dim`-dimensional vectors.
  explicit VectorRunningStats(std::size_t dim) : dims_(dim) {}
  /// Adopts per-dimension statistics (checkpoint restore).
  explicit VectorRunningStats(std::vector<RunningStats> dims)
      : dims_(std::move(dims)) {}

  std::size_t dim() const { return dims_.size(); }
  std::size_t count() const { return dims_.empty() ? 0 : dims_[0].count(); }

  /// Adds a vector (size must equal `dim()`).
  void Push(const std::vector<double>& x);

  /// Removes a previously added vector.
  void Remove(const std::vector<double>& x);

  /// Per-dimension mean.
  std::vector<double> Mean() const;

  /// L2 norm of the per-dimension standard deviation vector — the scalar σ
  /// the μ/σ-Change trigger compares distances against.
  double StddevNorm() const;

  /// Resets to empty with the same dimensionality.
  void Clear();

  /// Per-dimension access for checkpointing.
  const RunningStats& dim_stats(std::size_t i) const { return dims_[i]; }

 private:
  std::vector<RunningStats> dims_;
};

}  // namespace streamad::stats

#endif  // STREAMAD_STATS_RUNNING_STATS_H_
