#include "src/models/knn_model.h"
#include "src/io/binary_io.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/models/snapshot_diff.h"

namespace streamad::models {

namespace {

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  STREAMAD_CHECK(a.size() == b.size());
  double d2 = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double d = a[j] - b[j];
    d2 += d * d;
  }
  return d2;
}

}  // namespace

KnnModel::KnnModel(const Params& params) : params_(params) {
  STREAMAD_CHECK_MSG(params.k > 0, "k must be positive");
}

// STREAMAD_HOT: selection over the reused scratch distances
double KnnModel::MeanOfKSmallest(std::vector<double>* squared,
                                 double* kth_out) const {
  const std::size_t k = std::min(params_.k, squared->size());
  STREAMAD_CHECK(k > 0);
  std::nth_element(squared->begin(),
                   squared->begin() + static_cast<std::ptrdiff_t>(k - 1),
                   squared->end());
  // Sort the selected prefix so the summation order is a function of the
  // distance multiset alone (nth_element leaves the prefix unordered).
  std::sort(squared->begin(),
            squared->begin() + static_cast<std::ptrdiff_t>(k));
  if (kth_out != nullptr) *kth_out = (*squared)[k - 1];
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += std::sqrt((*squared)[i]);
  return sum / static_cast<double>(k);
}

// STREAMAD_HOT: per-step probe distance sweep
double KnnModel::MeanKnnDistance(std::span<const double> flat,
                                 std::size_t skip) {
  STREAMAD_CHECK(reference_.rows() > 0);
  scratch_d2_.clear();
  scratch_d2_.reserve(reference_.rows());
  for (std::size_t i = 0; i < reference_.rows(); ++i) {
    if (i == skip) continue;
    scratch_d2_.push_back(SquaredDistance(flat, reference_.RowSpan(i)));
  }
  return MeanOfKSmallest(&scratch_d2_);
}

void KnnModel::RebuildDistanceCache() {
  const std::size_t m = reference_.rows();
  if (m > kMaxCachedRows) {
    cache_valid_ = false;
    dist2_ = linalg::Matrix();
    return;
  }
  dist2_.EnsureShape(m, m);
  for (std::size_t a = 0; a < m; ++a) {
    dist2_(a, a) = 0.0;
    for (std::size_t b = 0; b < a; ++b) {
      const double d2 =
          SquaredDistance(reference_.RowSpan(a), reference_.RowSpan(b));
      dist2_(a, b) = d2;
      dist2_(b, a) = d2;
    }
  }
  cache_valid_ = true;
}

void KnnModel::RecomputeCalibRowFromCache(std::size_t i) {
  const std::size_t m = reference_.rows();
  scratch_d2_.clear();
  scratch_d2_.reserve(m - 1);
  for (std::size_t j = 0; j < m; ++j) {
    if (j != i) scratch_d2_.push_back(dist2_(i, j));
  }
  calib_raw_[i] = MeanOfKSmallest(&scratch_d2_, &calib_kth_[i]);
}

void KnnModel::RecomputeCalibration() {
  const std::size_t m = reference_.rows();
  if (m < 2) {
    calib_raw_.assign(1, 0.0);
    calib_kth_.assign(1, 0.0);
  } else {
    calib_raw_.resize(m);
    calib_kth_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (cache_valid_) {
        RecomputeCalibRowFromCache(i);
      } else {
        calib_raw_[i] = MeanKnnDistance(reference_.RowSpan(i), i);
        calib_kth_[i] = 0.0;  // unused without the distance cache
      }
    }
  }
  calibration_ = calib_raw_;
  std::sort(calibration_.begin(), calibration_.end());
}

void KnnModel::Fit(const core::TrainingSet& train) {
  STREAMAD_CHECK(!train.empty());
  const std::size_t flat_dim = train.at(0).window.size();
  reference_.EnsureShape(train.size(), flat_dim);
  for (std::size_t i = 0; i < train.size(); ++i) {
    reference_.SetRow(i, train.at(i).window.data());
  }
  RebuildDistanceCache();
  RecomputeCalibration();
}

void KnnModel::Finetune(const core::TrainingSet& train) {
  // The reference group IS the model: "fine-tuning" re-snapshots it. The
  // incremental path reuses the cached pairwise distances of unchanged
  // rows; the result is bit-identical to a fresh `Fit` on the same set.
  STREAMAD_CHECK(!train.empty());
  const std::size_t m_new = train.size();
  const std::size_t flat_dim = train.at(0).window.size();
  if (!fitted() || !cache_valid_ || reference_.cols() != flat_dim ||
      m_new > kMaxCachedRows) {
    Fit(train);
    return;
  }

  const SnapshotDiff diff = DiffRows(
      reference_.rows(),
      [this](std::size_t i) { return reference_.RowSpan(i); }, m_new,
      [&train](std::size_t j) {
        return std::span<const double>(train.at(j).window.data());
      });
  if ((diff.added.size() + diff.removed.size()) * 2 > m_new) {
    Fit(train);  // mostly new content: the full rebuild is cheaper
    return;
  }

  // Fast path: same size and every kept row kept its position — the
  // streaming replacement pattern of the Task-1 strategies. Changed rows
  // are overwritten in place, only their distance rows/columns recomputed,
  // and calibration values of rows provably untouched by the swap (old and
  // new distance both beyond the row's k-th-smallest threshold) are reused
  // verbatim; everything else re-derives through the same canonical
  // reduction, so the result is still bit-identical to a full `Fit`.
  const bool in_place =
      m_new == reference_.rows() && calib_kth_.size() == m_new &&
      std::all_of(diff.kept.begin(), diff.kept.end(),
                  [](const std::pair<std::size_t, std::size_t>& p) {
                    return p.first == p.second;
                  });
  if (in_place) {
    if (diff.added.empty()) return;  // identical content
    for (const std::size_t c : diff.added) {
      reference_.SetRow(c, train.at(c).window.data());
    }
    std::vector<char> stale(m_new, 0);
    for (const std::size_t c : diff.added) {
      stale[c] = 1;
      for (std::size_t i = 0; i < m_new; ++i) {
        if (i == c) continue;
        const double old_d2 = dist2_(i, c);
        const double new_d2 =
            SquaredDistance(reference_.RowSpan(i), reference_.RowSpan(c));
        if (old_d2 <= calib_kth_[i] || new_d2 <= calib_kth_[i]) stale[i] = 1;
        dist2_(i, c) = new_d2;
        dist2_(c, i) = new_d2;
      }
      dist2_(c, c) = 0.0;
    }
    if (m_new >= 2) {
      for (std::size_t i = 0; i < m_new; ++i) {
        if (stale[i]) RecomputeCalibRowFromCache(i);
      }
    } else {
      calib_raw_.assign(1, 0.0);
      calib_kth_.assign(1, 0.0);
    }
    calibration_ = calib_raw_;
    std::sort(calibration_.begin(), calibration_.end());
    return;
  }

  staged_rows_.EnsureShape(m_new, flat_dim);
  for (std::size_t j = 0; j < m_new; ++j) {
    staged_rows_.SetRow(j, train.at(j).window.data());
  }
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> old_of(m_new, kNone);
  for (const auto& [old_idx, new_idx] : diff.kept) old_of[new_idx] = old_idx;

  staged_dist2_.EnsureShape(m_new, m_new);
  for (std::size_t a = 0; a < m_new; ++a) {
    staged_dist2_(a, a) = 0.0;
    for (std::size_t b = 0; b < a; ++b) {
      const double d2 =
          (old_of[a] != kNone && old_of[b] != kNone)
              ? dist2_(old_of[a], old_of[b])
              : SquaredDistance(staged_rows_.RowSpan(a),
                                staged_rows_.RowSpan(b));
      staged_dist2_(a, b) = d2;
      staged_dist2_(b, a) = d2;
    }
  }
  std::swap(reference_, staged_rows_);
  std::swap(dist2_, staged_dist2_);
  RecomputeCalibration();
}

linalg::Matrix KnnModel::Predict(const core::FeatureVector& /*x*/) {
  STREAMAD_CHECK_MSG(false, "kNN-conformal is a scoring model");
  return {};
}

// STREAMAD_HOT: per-step conformal score
double KnnModel::AnomalyScore(const core::FeatureVector& x) {
  STREAMAD_CHECK_MSG(fitted(), "AnomalyScore before Fit");
  const double distance = MeanKnnDistance(
      std::span<const double>(x.window.data()), reference_.rows());
  // Conformal p-value style: the fraction of calibration distances below
  // the probe's distance.
  const auto it =
      std::lower_bound(calibration_.begin(), calibration_.end(), distance);
  return static_cast<double>(it - calibration_.begin()) /
         static_cast<double>(calibration_.size());
}


core::Status KnnModel::SaveState(io::BinaryWriter* writer) const {
  STREAMAD_CHECK(writer != nullptr);
  writer->WriteString("streamad.knn.v1");
  writer->WriteU64(params_.k);
  writer->WriteU64(reference_.rows());
  for (std::size_t i = 0; i < reference_.rows(); ++i) {
    writer->WriteDoubleVec(reference_.RowSpan(i));
  }
  writer->WriteDoubleVec(calibration_);
  if (!writer->ok()) return core::Status::IoError("knn checkpoint write failed");
  return core::Status::Ok();
}

core::Status KnnModel::LoadState(io::BinaryReader* reader) {
  STREAMAD_CHECK(reader != nullptr);
  std::uint64_t k = 0;
  std::uint64_t count = 0;
  if (!reader->ExpectString("streamad.knn.v1")) {
    return core::Status::DataLoss("not a streamad.knn.v1 archive");
  }
  if (!reader->ReadU64(&k) || !reader->ReadU64(&count)) {
    return core::Status::DataLoss("knn checkpoint header truncated");
  }
  if (k != params_.k) {
    return core::Status::FailedPrecondition(
        "k mismatch: archived " + std::to_string(k) + ", configured " +
        std::to_string(params_.k));
  }
  // The rows stage in one flat buffer; nothing of the model is touched
  // until every row, the calibration block and their checks have passed.
  std::vector<double> flat;
  std::uint64_t width = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t row_width = 0;
    if (!reader->AppendDoubleVec(&flat, &row_width)) {
      return core::Status::DataLoss("knn reference rows truncated");
    }
    if (i == 0) {
      width = row_width;
      // Room for every row at once, unless a corrupt count asks for more
      // than the reader allows any single container to hold.
      if (width != 0 && count <= io::BinaryReader::kMaxElements / width) {
        flat.reserve(count * width);
      }
    } else if (row_width != width) {
      return core::Status::DataLoss("knn reference row widths inconsistent");
    }
  }
  std::vector<double> calibration;
  if (!reader->ReadDoubleVec(&calibration)) {
    return core::Status::DataLoss("knn calibration block truncated");
  }
  if (calibration.empty() != (count == 0)) {
    return core::Status::DataLoss(
        "knn calibration/reference emptiness inconsistent");
  }
  if (count == 0) {
    reference_ = linalg::Matrix();
    cache_valid_ = false;
    dist2_ = linalg::Matrix();
  } else {
    reference_ = linalg::Matrix::FromFlat(count, width, std::move(flat));
    // The distance cache and per-row calibration rebuild deterministically
    // from the reference rows, so the v1 archive format carries neither.
    RebuildDistanceCache();
    RecomputeCalibration();
  }
  calibration_ = std::move(calibration);
  return core::Status::Ok();
}

}  // namespace streamad::models
