#ifndef STREAMAD_CORE_DETECTOR_CONFIG_H_
#define STREAMAD_CORE_DETECTOR_CONFIG_H_

#include <cstdint>

#include "src/models/autoencoder.h"
#include "src/models/knn_model.h"
#include "src/models/nbeats.h"
#include "src/models/online_arima.h"
#include "src/models/pcb_iforest.h"
#include "src/models/usad.h"
#include "src/models/var_model.h"
#include "src/strategies/kswin.h"

namespace streamad::core {

/// Every knob of a composed detector in ONE place, with defaults matching
/// the paper's description where stated (window 100, initial training
/// 5000) and sensible laptop-scale values elsewhere. Consumed by
/// `BuildDetector`, the `StreamingDetector` constructor and the serving
/// layer's session factory.
struct DetectorConfig {
  /// Data representation length w.
  std::size_t window = 100;
  /// Training set capacity m.
  std::size_t train_capacity = 500;
  /// Steps of the initial training phase (paper: 5000).
  std::size_t initial_train_steps = 5000;

  /// Master switch for Task-2 fine-tuning. The Figure-1 experiment runs a
  /// twin detector with this disabled to obtain the "previous model".
  bool finetuning_enabled = true;

  /// Anomaly-score windows k and k' (k' << k).
  std::size_t scorer_k = 100;
  std::size_t scorer_k_short = 10;

  /// Interval of the regular fine-tuning baseline; 0 derives it from
  /// `train_capacity` (the paper's `t mod m`).
  std::int64_t regular_interval = 0;

  strategies::Kswin::Params kswin;
  models::OnlineArima::Params arima;  // lag_order 0 derives w - d - 1
  models::Autoencoder::Params ae;
  models::Usad::Params usad;
  models::NBeats::Params nbeats;
  models::PcbIForest::Params pcb;
  models::VarModel::Params var;
  models::KnnModel::Params knn;

  DetectorConfig() { arima.lag_order = 0; }
};

}  // namespace streamad::core

#endif  // STREAMAD_CORE_DETECTOR_CONFIG_H_
