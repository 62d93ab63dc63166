#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <numeric>
#include <random>

namespace e2ebench {

namespace core = streamad::core;
namespace serve = streamad::serve;

namespace {

// Sized from measurements on a 4-core box (README.md): each open-loop rate
// sits well below the workload's closed-loop saturation, and each
// closed-loop window is deep enough to keep both shards busy even when
// replies are held up on the wire, yet within the shard queue capacity, so
// no event is dropped.
const Workload kWorkloads[] = {
    {"ingest_light",
     {core::ModelType::kOnlineArima, core::Task1::kUniformReservoir,
      core::Task2::kMuSigma},
     /*sessions=*/256, /*batch_size=*/64, /*open_rate_eps=*/25000.0,
     /*closed_window=*/8192, /*closed_session_cap=*/64,
     /*max_resident_per_shard=*/0,
     /*shift_every=*/0, /*skewed=*/false, /*period=*/1024,
     /*traced_replay_sessions=*/32},
    {"finetune_heavy",
     {core::ModelType::kUsad, core::Task1::kSlidingWindow,
      core::Task2::kKswin},
     /*sessions=*/16, /*batch_size=*/1, /*open_rate_eps=*/600.0,
     /*closed_window=*/256, /*closed_session_cap=*/16,
     /*max_resident_per_shard=*/0,
     /*shift_every=*/600, /*skewed=*/false, /*period=*/2400,
     /*traced_replay_sessions=*/4},
    {"session_churn",
     {core::ModelType::kNearestNeighbor, core::Task1::kUniformReservoir,
      core::Task2::kMuSigma},
     /*sessions=*/1024, /*batch_size=*/16, /*open_rate_eps=*/2000.0,
     /*closed_window=*/512, /*closed_session_cap=*/64,
     /*max_resident_per_shard=*/128,
     /*shift_every=*/0, /*skewed=*/true, /*period=*/512,
     /*traced_replay_sessions=*/32},
};

/// Shard queue capacity: deeper than every closed-loop window, so a
/// correct fleet never drops an event of this benchmark.
constexpr std::size_t kQueueCapacity = 16384;
/// Length of the skewed key schedule (it wraps).
constexpr std::size_t kScheduleLength = 1u << 16;
constexpr std::size_t kCheckedPerGroup = 4;
/// Sinusoid cycles per table length, and amplitudes, of the channels.
constexpr double kCycles[kChannels] = {4.0, 6.0, 10.0};
constexpr double kAmplitude[kChannels] = {1.0, 0.8, 1.2};

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& workload : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += workload.name;
  }
  return names;
}

core::DetectorConfig DetectorConfigFor(const Workload& /*workload*/) {
  core::DetectorConfig config;
  config.window = 16;
  config.train_capacity = 64;
  config.initial_train_steps = 100;
  config.scorer_k = 20;
  config.scorer_k_short = 4;
  config.kswin.check_every = 8;
  config.usad.fit_epochs = 5;
  return config;
}

serve::FleetOptions FleetOptionsFor(const Workload& workload,
                                    streamad::obs::MetricsRegistry* metrics,
                                    serve::CheckpointStore* store) {
  serve::FleetOptions options;
  options.shards = kShards;
  options.queue_capacity = kQueueCapacity;
  options.max_resident_per_shard = workload.max_resident_per_shard;
  options.store = store;
  options.metrics = metrics;
  options.session_analytics = metrics != nullptr;
  return options;
}

std::int64_t FirstScoredT(const Workload& workload) {
  const core::DetectorConfig config = DetectorConfigFor(workload);
  return static_cast<std::int64_t>(config.window - 1 +
                                   config.initial_train_steps);
}

Inputs::Inputs(const Workload& workload, std::uint64_t seed)
    : workload_(&workload), seed_(seed) {
  const std::size_t n = workload.sessions;
  ids_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    char id[32];
    std::snprintf(id, sizeof(id), "s%04zu", s);
    ids_.emplace_back(id);
  }

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> noise(0.0, 0.1);
  values_.resize(n * workload.period * kChannels);
  for (std::size_t s = 0; s < n; ++s) {
    // Each channel is a sinusoid whose cycle divides the table length, so
    // the stream wraps without a seam, plus Gaussian noise. Only phases and
    // noise come from the seed: the shapes that decide how often drift
    // detectors fire stay the same across seeds.
    // Level shifts start at a random offset per session, so sessions fed
    // in lockstep do not all shift (and fine-tune) at the same step.
    double phase[kChannels];
    for (std::size_t c = 0; c < kChannels; ++c) {
      phase[c] = 2.0 * std::numbers::pi * unit(rng);
    }
    const std::size_t shift_offset = rng() % workload.period;
    for (std::size_t k = 0; k < workload.period; ++k) {
      double level = 0.0;
      if (workload.shift_every > 0 &&
          ((k + shift_offset) / workload.shift_every) % 2 == 1) {
        level = 3.0;
      }
      for (std::size_t c = 0; c < kChannels; ++c) {
        values_[(s * workload.period + k) * kChannels + c] =
            level +
            kAmplitude[c] *
                std::sin(2.0 * std::numbers::pi * static_cast<double>(k) *
                             kCycles[c] / static_cast<double>(workload.period) +
                         phase[c]) +
            noise(rng);
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  if (workload.skewed) {
    const std::size_t hot = n / 5;
    schedule_.resize(kScheduleLength);
    for (std::uint32_t& key : schedule_) {
      const bool to_hot = unit(rng) < 0.8;
      const std::size_t pick = to_hot ? rng() % hot : hot + rng() % (n - hot);
      key = static_cast<std::uint32_t>(order[pick]);
    }
    // Half hot, half cold sessions: the cold ones are evicted and
    // rehydrated between their events.
    for (std::size_t i = 0; i < kCheckedPerGroup; ++i) {
      checked_.push_back(order[i]);
      checked_.push_back(order[hot + i]);
    }
  } else {
    for (std::size_t i = 0; i < std::min<std::size_t>(kCheckedPerGroup, n);
         ++i) {
      checked_.push_back(order[i]);
    }
    if (workload.batch_size == 1) checked_.resize(2);
  }
}

std::size_t Inputs::ParseId(std::string_view id) const {
  if (id.size() < 2 || id[0] != 's') return sessions();
  std::size_t value = 0;
  for (std::size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return sessions();
    value = value * 10 + static_cast<std::size_t>(id[i] - '0');
  }
  return value < sessions() ? value : sessions();
}

serve::SessionConfig Inputs::SessionConfig(std::size_t session) const {
  serve::SessionConfig config;
  config.spec = workload_->spec;
  config.score = core::ScoreType::kAverage;
  config.detector = DetectorConfigFor(*workload_);
  config.seed = seed_ * 1000003ull + session;
  return config;
}

std::vector<std::size_t> Inputs::ReplaySessions(bool traced) const {
  std::vector<std::size_t> replay = checked_;
  if (!traced) return replay;
  // Hot sessions first under skew: they carry most of the steps.
  for (std::size_t i = 0;
       i < sessions() && replay.size() < workload_->traced_replay_sessions;
       ++i) {
    const std::size_t candidate =
        schedule_.empty() ? i : static_cast<std::size_t>(schedule_[i]);
    if (std::find(replay.begin(), replay.end(), candidate) == replay.end()) {
      replay.push_back(candidate);
    }
  }
  return replay;
}

}  // namespace e2ebench
