#ifndef STREAMAD_STRATEGIES_MU_SIGMA_CHANGE_H_
#define STREAMAD_STRATEGIES_MU_SIGMA_CHANGE_H_

#include <vector>

#include "src/core/component_interfaces.h"
#include "src/stats/running_stats.h"

namespace streamad::strategies {

/// Task-2 strategy **μ/σ-Change** (paper §IV-B): keeps the running mean
/// feature vector μ_t ∈ R^{Nw} and standard deviation σ_t of the training
/// set, updated in O(Nw) per step via Welford insert/remove as the Task-1
/// strategy replaces elements. Fine-tuning triggers when
///
///   ||μ_t − μ_i||₂ > σ_i   or   σ_t > 2 σ_i   or   σ_t < σ_i / 2,
///
/// where (μ_i, σ_i) are the statistics snapshotted at the last fine-tune.
/// (The paper prints the σ condition as `½σ_i > σ_t > 2σ_i`, which is
/// unsatisfiable as written; this is the evident intent — see DESIGN.md.)
/// σ here is the L2 norm of the per-dimension standard deviations.
class MuSigmaChange : public core::DriftDetector {
 public:
  MuSigmaChange() = default;

  void Observe(const core::TrainingSet& set,
               const core::TrainingSetUpdate& update, std::int64_t t) override;
  bool ShouldFinetune(const core::TrainingSet& set, std::int64_t t) override;
  void OnFinetune(const core::TrainingSet& set, std::int64_t t) override;
  std::string_view name() const override { return "mu-sigma"; }
  /// ||μ_t − μ_i||₂ / σ_i from the most recent `ShouldFinetune` sweep
  /// (> 1 means the mean-shift trigger fired). Observability only.
  double DriftStatistic() const override { return last_statistic_; }
  void AttachOpCounters(OpCounters* counters) override { counters_ = counters; }

  bool SaveState(io::BinaryWriter* writer) const override;
  bool LoadState(io::BinaryReader* reader) override;

  /// Current running mean (exposed for tests).
  std::vector<double> CurrentMean() const { return running_.Mean(); }

 private:
  void EnsureDim(std::size_t dim);
  static std::vector<double> Flatten(const core::FeatureVector& fv);

  stats::VectorRunningStats running_;
  std::vector<double> reference_mean_;  // μ_i
  double reference_sigma_ = 0.0;        // σ_i
  double last_statistic_ = 0.0;         // cached for DriftStatistic()
  bool has_reference_ = false;
  OpCounters* counters_ = nullptr;
};

}  // namespace streamad::strategies

#endif  // STREAMAD_STRATEGIES_MU_SIGMA_CHANGE_H_
