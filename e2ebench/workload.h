#ifndef STREAMAD_E2EBENCH_WORKLOAD_H_
#define STREAMAD_E2EBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/algorithm_spec.h"
#include "src/serve/fleet.h"

namespace e2ebench {

/// Channels of every generated stream.
inline constexpr std::size_t kChannels = 3;
/// Events session `session` gets before timing starts: past its window
/// fill (w - 1 = 15 steps) and its initial fit (100 scorable steps), so
/// every timed event is scored and answered with one SCORE_BATCH entry.
/// Sessions get 0..15 extra events so that, fed in lockstep afterwards,
/// they do not all reach their periodic drift checks at the same moment.
inline std::uint64_t WarmEvents(std::size_t session) {
  return 128 + session % 16;
}
/// Shards of the fleet under test: with the server loop and the generator
/// that makes four busy threads, one per core of the reference box.
inline constexpr std::size_t kShards = 2;

/// One traffic mix. See README.md for why each exists.
struct Workload {
  const char* name;
  streamad::core::AlgorithmSpec spec;
  std::size_t sessions;
  /// Events per EVENT_BATCH frame.
  std::size_t batch_size;
  /// Open-loop offered load, events per second.
  double open_rate_eps;
  /// Events in flight in the closed-loop phase, in total and per session.
  /// The closed loop models sensors that each wait for their replies: it
  /// skips a session at its cap, so one slow shard cannot idle the other.
  std::size_t closed_window;
  std::size_t closed_session_cap;
  /// LRU residency cap per shard (0: every session stays resident).
  std::size_t max_resident_per_shard;
  /// Every this many steps a session's level shifts (0: stationary).
  std::size_t shift_every;
  /// 80% of events go to 20% of the sessions (else round-robin keys).
  bool skewed;
  /// Length of each session's pre-generated series; streams wrap at it.
  std::size_t period;
  /// Sessions replayed sequentially in a traced run (correctness subset
  /// first).
  std::size_t traced_replay_sessions;
};

const Workload* FindWorkload(std::string_view name);
std::string WorkloadNames();

streamad::core::DetectorConfig DetectorConfigFor(const Workload& workload);
streamad::serve::FleetOptions FleetOptionsFor(
    const Workload& workload, streamad::obs::MetricsRegistry* metrics,
    streamad::serve::CheckpointStore* store);

/// First stream step that produces a score (see `WarmEvents`).
std::int64_t FirstScoredT(const Workload& workload);

/// All inputs of one run, generated from the seed before anything is
/// timed: per-session value tables, the key schedule and the detector
/// seeds. The same seed gives the same inputs.
class Inputs {
 public:
  Inputs(const Workload& workload, std::uint64_t seed);

  const Workload& workload() const { return *workload_; }
  std::size_t sessions() const { return ids_.size(); }

  /// The `kChannels` values of session `session`'s `k`-th event.
  const double* Values(std::size_t session, std::uint64_t k) const {
    const std::size_t row = static_cast<std::size_t>(k % workload_->period);
    return &values_[(session * workload_->period + row) * kChannels];
  }
  /// Session of the `i`-th timed event.
  std::size_t KeyAt(std::uint64_t i) const {
    if (schedule_.empty()) return static_cast<std::size_t>(i % sessions());
    return schedule_[static_cast<std::size_t>(i % schedule_.size())];
  }

  const std::string& Id(std::size_t session) const { return ids_[session]; }
  /// Inverse of `Id`; returns `sessions()` for an id this run never made.
  std::size_t ParseId(std::string_view id) const;

  /// The closed loop's next key: the next session of the schedule for
  /// which `has_room(session)` holds; sessions without room are skipped.
  /// False when a scan of 4 x sessions keys finds none.
  template <typename HasRoom>
  bool NextClosedKey(std::uint64_t* cursor, HasRoom has_room,
                     std::size_t* key) const {
    for (std::size_t scan = 0; scan < 4 * sessions(); ++scan) {
      const std::size_t session = KeyAt((*cursor)++);
      if (has_room(session)) {
        *key = session;
        return true;
      }
    }
    return false;
  }

  streamad::serve::SessionConfig SessionConfig(std::size_t session) const;

  /// Sessions whose scores are checked bit for bit against a sequential
  /// replay. In session_churn half are cold, so evictions are covered.
  const std::vector<std::size_t>& checked() const { return checked_; }
  /// Sessions a traced run replays: `checked()` first, then more.
  std::vector<std::size_t> ReplaySessions(bool traced) const;

 private:
  const Workload* workload_;
  std::uint64_t seed_;
  std::vector<std::string> ids_;
  std::vector<double> values_;
  std::vector<std::uint32_t> schedule_;
  std::vector<std::size_t> checked_;
};

}  // namespace e2ebench

#endif  // STREAMAD_E2EBENCH_WORKLOAD_H_
