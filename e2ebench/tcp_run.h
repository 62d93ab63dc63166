#ifndef STREAMAD_E2EBENCH_TCP_RUN_H_
#define STREAMAD_E2EBENCH_TCP_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "src/net/ingress_client.h"
#include "src/obs/metrics.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/fleet.h"
#include "src/serve/ingress_service.h"
#include "workload.h"

namespace e2ebench {

/// One SCORE_BATCH entry as the client saw it (kept for checked sessions).
struct ReceivedScore {
  std::int64_t t = 0;
  std::uint8_t flags = 0;
  double nonconformity = 0.0;
  double anomaly_score = 0.0;
};

/// Figures of one open-loop phase.
struct OpenLoopResult {
  std::vector<double> latency_us;  // one per scored event, from its due time
  std::vector<double> lag_us;      // one per batch: send time - due time
  std::uint64_t events = 0;
  double cpu_s = 0.0;              // process CPU over the phase and drain
  std::uint64_t allocs = 0;        // process allocations (when counted)
  // Program-side counters over the phase (registry deltas / snapshots).
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_out = 0;
  double queue_wait_p50_ns = 0.0;  // max over shards
  double queue_wait_p99_ns = 0.0;
  double shard_step_p50_ns = 0.0;
  double shard_step_p99_ns = 0.0;
  // Fleet counters over the phase.
  std::uint64_t processed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::vector<std::uint64_t> shard_processed;
};

/// An `IngressService` + `DetectorFleet` with the live plane on (metrics
/// registry, session analytics), fed over one loopback TCP connection by
/// the calling thread. Construction is the set-up: fleet, sessions,
/// listener, connect and warm-up of every session past its initial fit.
///
/// The generator matches every SCORE_BATCH entry to its event on
/// `(stream_id, t)` and checks, as it goes, that each event past warm-up
/// is answered exactly once and in `t` order per session; violations are
/// collected in `errors()` and judged after the timed phases.
class TcpBench {
 public:
  explicit TcpBench(const Inputs& inputs);
  ~TcpBench();
  TcpBench(const TcpBench&) = delete;
  TcpBench& operator=(const TcpBench&) = delete;

  /// Closed loop: keeps `closed_window` events in flight for `seconds`;
  /// returns scored events per second in each of `slices` equal slices.
  /// `spans` (may be null) receives SendEventBatch / ReadFrame spans.
  std::vector<double> RunClosed(double seconds, int slices, SpanLog* spans);

  /// Open loop at the workload's fixed rate for `seconds`, then a drain.
  /// Everything but the unmeasured lead-in counts: latencies, lag, events,
  /// CPU, allocations and the program's counters.
  OpenLoopResult RunOpen(double seconds, bool count_allocs);

  /// Stops the service and the fleet (after a final drain).
  void Stop();

  const std::vector<std::string>& errors() const { return errors_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t nacked_dropped() const { return nacked_dropped_; }
  std::uint64_t nacked_unknown() const { return nacked_unknown_; }
  std::uint64_t nacked_throttled() const { return nacked_throttled_; }
  /// Events sent but never answered (valid after `Stop`).
  std::uint64_t never_scored() const { return never_scored_; }
  /// Timed entries and how many of them carried the finetuned flag.
  std::uint64_t timed_entries() const { return timed_entries_; }
  std::uint64_t timed_finetunes() const { return timed_finetunes_; }

  /// Events sent to `session` so far (warm-up included).
  std::uint64_t sent(std::size_t session) const {
    return tracks_[session].sent;
  }
  /// Scores received for a checked session, and the `k` of its events the
  /// fleet dropped (which the detector therefore never saw).
  const std::vector<ReceivedScore>& received(std::size_t session) const {
    return checked_.at(session).received;
  }
  const std::vector<std::uint64_t>& dropped_ks(std::size_t session) const {
    return checked_.at(session).dropped_ks;
  }


 private:
  struct Pending {
    std::uint64_t due_ns = 0;
    std::uint32_t batch_id = 0;
    bool dropped = false;
  };
  struct Track {
    std::uint64_t sent = 0;   // k of the session's next event
    std::uint64_t head = 0;   // k of its oldest unanswered event
    std::int64_t next_t = 0;  // t its next SCORE_BATCH entry must carry
  };
  struct Checked {
    std::vector<ReceivedScore> received;
    std::vector<std::uint64_t> dropped_ks;
  };
  struct Sent {
    std::uint32_t session = 0;
    std::uint32_t k = 0;
  };

  /// Sends one EVENT_BATCH of `keys` (session indices), due at `due_ns`.
  void SendBatch(const std::size_t* keys, std::size_t count,
                 std::uint64_t due_ns, SpanLog* spans);
  /// Reads and handles at most one frame; false when none came in time.
  bool Pump(int timeout_ms, SpanLog* spans);
  void OnScores(const streamad::net::wire::ScoreBatchFrame& frame,
                std::uint64_t rx_ns);
  void OnNack(const streamad::net::wire::NackFrame& frame);
  /// Reads until every sent event is answered or `timeout_s` passes.
  void Drain(double timeout_s);
  /// Receives frames until `due_ns`, blocked in ppoll(2) between them:
  /// receive stamps are taken as frames arrive, and no core is spun.
  void WaitUntil(std::uint64_t due_ns);
  void Error(const std::string& message);
  std::vector<std::uint64_t> ShardProcessed() const;

  const Inputs& inputs_;
  const Workload& workload_;
  streamad::obs::MetricsRegistry registry_;
  streamad::serve::MemoryCheckpointStore store_;
  streamad::serve::DetectorFleet fleet_;
  streamad::serve::IngressService service_;
  streamad::net::IngressClient client_;

  std::vector<Track> tracks_;
  std::vector<Pending> ring_;  // sessions x kRing, indexed by k
  std::vector<Sent> sent_log_;  // kBatchLog x batch_size, by batch id
  std::map<std::size_t, Checked> checked_;
  streamad::net::wire::EventBatchFrame batch_;
  streamad::net::wire::Frame frame_;
  int client_fd_ = -1;  // client_'s socket, only ever polled
  std::uint64_t batch_seq_ = 0;
  std::uint64_t key_cursor_ = 0;  // position in the timed key schedule
  std::uint64_t outstanding_ = 0;

  bool timed_ = false;
  bool record_latency_ = false;
  std::uint64_t latency_from_ns_ = 0;
  std::vector<double>* latency_us_ = nullptr;
  std::uint64_t slice_start_ns_ = 0;
  std::uint64_t slice_ns_ = 0;
  std::vector<std::uint64_t>* slice_counts_ = nullptr;

  std::uint64_t attempted_ = 0;
  std::uint64_t nacked_dropped_ = 0;
  std::uint64_t nacked_unknown_ = 0;
  std::uint64_t nacked_throttled_ = 0;
  std::uint64_t never_scored_ = 0;
  std::uint64_t timed_entries_ = 0;
  std::uint64_t timed_finetunes_ = 0;
  std::vector<std::string> errors_;
  bool broken_ = false;
  bool stopped_ = false;
};

}  // namespace e2ebench

#endif  // STREAMAD_E2EBENCH_TCP_RUN_H_
