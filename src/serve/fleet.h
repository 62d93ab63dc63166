#ifndef STREAMAD_SERVE_FLEET_H_
#define STREAMAD_SERVE_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/algorithm_spec.h"
#include "src/core/detector_config.h"
#include "src/core/status.h"
#include "src/harness/experiment.h"
#include "src/harness/parallel.h"
#include "src/obs/score_analytics.h"
#include "src/serve/checkpoint_store.h"

namespace streamad::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class QuantileSketch;
class Recorder;
}  // namespace streamad::obs

namespace streamad::serve {

/// Outcome of `DetectorFleet::Submit`, the fleet's explicit backpressure
/// contract. Producers that ignore `kThrottled` will eventually see
/// `kDropped`; the fleet never blocks an ingestion thread.
enum class Admission {
  /// Enqueued on the session's shard; the shard is keeping up.
  kQueued,
  /// Enqueued, but the shard queue reached its watermark — slow down.
  kThrottled,
  /// Not enqueued: the shard queue is at capacity (or the fleet stopped).
  kDropped,
};

const char* ToString(Admission admission);

/// One id-addressed event, the unit of `DetectorFleet::SubmitBatch` (and
/// of the network ingress path, which decodes EVENT_BATCH frames into
/// spans of these).
struct Event {
  std::string stream_id;
  core::StreamVector values;
};

/// One scored step of a session, as delivered to its callback or result
/// ring. `t` is the session-local stream step (the detector's `t()` at the
/// time of the step), so consumers can re-order-check and join against the
/// original series.
struct SessionStepResult {
  std::int64_t t = 0;
  core::StreamingDetector::StepResult step;
};

/// Everything needed to (re)build one session's detector — the same
/// `AlgorithmSpec` registry + `DetectorConfig` + seed triple that
/// `BuildDetector` consumes, which is what makes eviction lossless: an
/// evicted session is reconstructed from this config and `LoadState`, and
/// continues bit-identically (the seed matters even for not-yet-trained
/// sessions, whose model parameters are rebuilt rather than archived).
struct SessionConfig {
  core::AlgorithmSpec spec{core::ModelType::kOnlineArima,
                           core::Task1::kSlidingWindow, core::Task2::kMuSigma};
  core::ScoreType score = core::ScoreType::kAverage;
  core::DetectorConfig detector;
  std::uint64_t seed = 7;

  /// When set, every scored step is pushed to this callback from the
  /// session's shard worker (one thread per shard, so callbacks of one
  /// session never run concurrently). When null, results accumulate in
  /// the session's pollable ring (`DetectorFleet::Poll`).
  std::function<void(const std::string& stream_id,
                     const SessionStepResult& result)>
      on_result;

  /// Observability attachments for this session, same struct the harness
  /// sweeps use (src/harness/experiment.h). When `run.metrics` is set the
  /// session owns an `obs::Recorder` that survives eviction cycles (label
  /// defaults to the stream id).
  harness::RunOptions run;
};

/// Serve-path defaults for fleet-created score analytics (see
/// `FleetOptions::analytics`).
inline obs::ScoreAnalyticsOptions DefaultServeAnalytics() {
  obs::ScoreAnalyticsOptions options;
  options.score_sample_every = 8;
  return options;
}

struct FleetOptions {
  /// Worker shards; sessions are hash-partitioned over them.
  std::size_t shards = 4;
  /// Per-shard queue capacity (events). Beyond it, `Submit` drops.
  std::size_t queue_capacity = 1024;
  /// Queue depth at which `Submit` starts returning `kThrottled`;
  /// 0 derives 3/4 of `queue_capacity`.
  std::size_t throttle_watermark = 0;

  /// LRU session-cache bound per shard: when more sessions than this are
  /// resident on a shard, the least-recently-used ones are evicted to the
  /// checkpoint `store`. Sessions that have never been stepped count as
  /// older than every stepped one and go first, oldest-created first.
  /// Choosing a victim is O(1) (the back of a per-shard recency list).
  /// 0 keeps every session resident.
  std::size_t max_resident_per_shard = 0;
  /// Debug / test knob: evict a session after every K processed events
  /// regardless of cache pressure (0 disables). The golden fleet test
  /// uses this to force hundreds of save/load cycles through a short
  /// stream and still demand bit-identical scores.
  std::size_t force_evict_every = 0;
  /// Destination for evicted session state. Required if either eviction
  /// knob above is set. Not owned.
  CheckpointStore* store = nullptr;

  /// Per-session result ring capacity for sessions without a callback.
  /// When a ring overflows, the OLDEST results are discarded and the
  /// fleet-wide `result_overflow` counter advances.
  std::size_t result_ring_capacity = 4096;

  /// Registry for fleet metrics: per-shard queue-depth gauges, queue-wait
  /// and step-latency histograms + summaries, the counters behind
  /// `FleetStats` and the `streamad_serve_stalled_shards` health gauge.
  /// Not owned. A registry serves one fleet (the names carry no fleet
  /// label). When null the fleet counts into a registry of its own and
  /// reads no clock for sessions without a recorder.
  obs::MetricsRegistry* metrics = nullptr;

  /// Take the event-timing path (enqueue stamp -> queue-wait and step
  /// latency observations) for one event in N per shard, where N is this
  /// value rounded up to a power of two (the selection must be a mask, not
  /// a division, to stay off the ingest budget). Counters, gauges and
  /// queue accounting stay exact for every event; only the latency
  /// histograms and summaries see the (unbiased) 1-in-N subsample. At
  /// full-rate ingest the timing path costs three clock reads plus four
  /// latency observations per event, which is a measurable tax on the
  /// fastest shards — the default keeps attribution on without paying it
  /// everywhere. 1 times every event (what the attribution tests use).
  std::uint32_t timing_sample_every = 16;

  /// Attach detection-quality analytics (src/obs/score_analytics.h) to
  /// every session that does not already carry them through its own
  /// recorder: score quantiles, EWMA baseline, windowed anomaly rate,
  /// drift gauge and a recent-anomaly log, updated by the shard worker on
  /// every step and read back via `SnapshotSession` / `SnapshotQuality`
  /// and the `/sessions/<id>` + `/anomalies` endpoints. The analytics
  /// state is keyed by session, not by detector — it survives eviction
  /// and rehydration cycles. Works with or without `metrics`.
  bool session_analytics = false;
  /// Tuning for the per-session analytics when enabled. The serve
  /// default feeds the score quantile sketch 1-in-8 — same reasoning as
  /// `timing_sample_every`: a sketch update (its internal mutex plus
  /// four P² marker batteries) per scored step is a measurable tax at
  /// full ingest rate, and every non-sketch signal (threshold rule,
  /// anomaly rate, anomaly log, EWMA, all counters) stays exact per
  /// step regardless. Set `analytics.score_sample_every = 1` to feed
  /// the sketch every score.
  obs::ScoreAnalyticsOptions analytics = DefaultServeAnalytics();

  /// Watchdog poll cadence in milliseconds; 0 disables the watchdog
  /// thread entirely.
  std::size_t watchdog_poll_ms = 0;
  /// Stall window: a shard with queued events and no dequeue progress for
  /// at least this long is declared stalled — `/healthz` flips to
  /// degraded, `streamad_serve_stalled_shards` rises, and the flight
  /// recorders of the shard's sessions are dumped once per transition.
  std::size_t stall_window_ms = 1000;
};

/// Point-in-time view of one session, as served by `/sessions`.
struct SessionSnapshot {
  std::string id;
  std::size_t shard = 0;
  /// Detector currently in memory (false = evicted to the store).
  bool resident = false;
  bool healthy = true;
  /// The sticky poison message when `healthy` is false.
  std::string health_message;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  /// Detector stream step after the most recent event (0 = none yet).
  std::int64_t last_step_t = 0;
  /// `obs::NowNs()` at the most recent processed event; 0 when the fleet
  /// runs without metrics (no clock on the event path) or nothing ran yet.
  std::uint64_t last_event_ns = 0;
};

/// `/sessions/<id>` detail: the session snapshot plus its quality
/// analytics (when attached).
struct SessionDetail {
  SessionSnapshot session;
  bool has_analytics = false;
  obs::ScoreAnalyticsSnapshot analytics;
};

/// One row of the fleet-wide quality view behind `/anomalies`.
struct SessionQuality {
  std::string id;
  std::size_t shard = 0;
  std::uint64_t processed = 0;
  obs::ScoreAnalyticsSnapshot analytics;
};

/// Point-in-time view of one shard, as served by `/healthz`.
struct ShardSnapshot {
  std::size_t index = 0;
  std::size_t queue_depth = 0;
  std::size_t resident = 0;
  std::uint64_t processed = 0;
  bool stalled = false;
  /// `obs::NowNs()` at the last timed dequeue (0 without metrics).
  std::uint64_t last_progress_ns = 0;
};

/// Counters snapshot (see `DetectorFleet::Stats`).
struct FleetStats {
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t throttled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t rehydrate_failures = 0;
  std::uint64_t result_overflow = 0;
  /// Threshold crossings flagged by fleet-fed session analytics (0 when
  /// `FleetOptions::session_analytics` is off).
  std::uint64_t anomalies = 0;
  std::size_t sessions = 0;
  std::size_t resident_sessions = 0;
};

/// A fleet of named detector sessions behind one ingestion API.
///
/// `Submit(stream_id, s)` hashes the id to a shard and enqueues the event
/// on that shard's bounded queue (`harness::BoundedQueue`); one worker
/// thread per shard pops events in FIFO order and steps the session's
/// detector, which preserves per-session ordering while distinct streams
/// run concurrently. Results are delivered from the shard worker via the
/// session callback, or buffered for `Poll`.
///
/// Sessions are created up front (`CreateSession`) and live until the
/// fleet dies; the LRU cache only bounds how many *detectors* are resident
/// in memory. Eviction serialises the full detector through `SaveState`
/// into the checkpoint store; the next event for the session rebuilds the
/// detector from its `SessionConfig` and restores it with `LoadState` —
/// bit-identically, which is the fleet's golden-tested invariant.
class DetectorFleet {
 public:
  explicit DetectorFleet(const FleetOptions& options);
  ~DetectorFleet();

  DetectorFleet(const DetectorFleet&) = delete;
  DetectorFleet& operator=(const DetectorFleet&) = delete;

  /// Registers a session and builds its detector (resident immediately).
  /// Fails with `kInvalidArgument` if the id already exists.
  core::Status CreateSession(const std::string& stream_id,
                             const SessionConfig& config);

  /// Enqueues one stream vector for `stream_id`. Never blocks. The id
  /// must name a created session (programming error otherwise). Thin
  /// wrapper over the shared run-admission core of `SubmitBatch`.
  Admission Submit(const std::string& stream_id, const core::StreamVector& s);

  /// Batch ingress: submits `events` in order and writes one `Admission`
  /// per event into `admissions[0..events.size())`. Never blocks.
  /// Consecutive events of the same stream form a *run* that costs one
  /// session lookup, one timing-sequence reservation and one queue lock
  /// — the reason the network ingress path decodes an EVENT_BATCH into a
  /// single call here instead of looping over `Submit`. Per-session FIFO
  /// order is preserved (a run lands contiguously in its shard queue).
  /// Every id must name a created session (programming error otherwise;
  /// the ingress server pre-filters unknown ids into NACKs).
  void SubmitBatch(std::span<const Event> events, Admission* admissions);

  /// Blocks until every accepted event has been fully processed.
  void WaitIdle();

  /// Drains up to `limit` buffered results (0 = all) of a callback-less
  /// session into `*out` (appended, oldest first). Returns the number
  /// moved.
  std::size_t Poll(const std::string& stream_id,
                   std::vector<SessionStepResult>* out, std::size_t limit = 0);

  /// Health of one session: OK, the sticky error that poisoned it (e.g.
  /// a failed rehydration — such sessions drop all further events), or
  /// `kNotFound` for an id with no session.
  core::Status SessionHealth(const std::string& stream_id) const;

  /// Closes the queues and joins the workers; queued events are still
  /// drained. Subsequent `Submit` calls return `kDropped`. Idempotent.
  void Stop();

  /// True once `Stop` has begun: every further `Submit` is a permanent
  /// `kDropped`, so retry loops should give up rather than spin.
  bool stopped() const;

  FleetStats Stats() const;

  /// Live-plane read side: per-session and per-shard snapshots, taken
  /// under the fleet locks so ids and residency are consistent (the
  /// counters themselves are relaxed atomics — monotonic but not mutually
  /// synchronised). Sessions come back sorted by id.
  std::vector<SessionSnapshot> SnapshotSessions() const;
  std::vector<ShardSnapshot> SnapshotShards() const;

  /// Detail view of one session (snapshot + quality analytics). Returns
  /// false when no session has that id.
  bool SnapshotSession(const std::string& stream_id, SessionDetail* out) const;

  /// Quality rows for every session carrying analytics (fleet-fed or via
  /// its own recorder), sorted by id. Empty when analytics are off.
  std::vector<SessionQuality> SnapshotQuality() const;

  /// False while any shard is marked stalled by the watchdog (degraded).
  bool healthy() const;

  /// Test hook: park (or release) a shard's worker before its next
  /// dequeue, simulating a wedged shard so watchdog behaviour is testable
  /// without a genuinely hung detector. `Stop` releases all holds.
  void HoldShardForTest(std::size_t shard_index, bool hold);

  /// Shard a given id maps to (stable for the fleet's lifetime).
  std::size_t ShardOf(const std::string& stream_id) const;

  const FleetOptions& options() const { return options_; }

 private:
  struct Session {
    std::string id;
    /// Shard index and the timing flag are read by submitter threads on
    /// every `Submit`; they sit with the other immutable-after-creation
    /// fields, cache-line-separated from the worker-written group below
    /// (sharing a line would ping-pong it once per event).
    std::size_t shard = 0;
    /// Precomputed at creation: this session wants per-event enqueue
    /// stamps (it has a recorder or the fleet exports metrics).
    bool wants_timing = false;
    SessionConfig config;
    /// Null while evicted; only the owning shard worker mutates it after
    /// creation.
    std::unique_ptr<core::StreamingDetector> detector;
    /// Session-owned recorder (built when `config.run` asks for one);
    /// re-attached after every rehydration.
    std::unique_ptr<obs::Recorder> recorder;
    /// Quality analytics, fleet-owned when `FleetOptions::
    /// session_analytics` asked for them and the session's recorder does
    /// not already carry its own; non-null means the shard worker feeds
    /// them (a recorder feeds its own instance from `EndStep`). Like the
    /// recorder, this outlives the detector across eviction cycles.
    std::unique_ptr<obs::ScoreAnalytics> analytics_storage;
    /// The analytics instance to read (owned above, or the recorder's);
    /// null when the session has none.
    obs::ScoreAnalytics* analytics = nullptr;
    /// Sticky failure (rehydration / eviction error); poisons the session.
    core::Status health;
    /// Start of the worker-written per-event fields (see `shard` above).
    /// Links in the shard's recency list, which holds exactly the resident
    /// sessions (front = most recently stepped); guarded by the shard's
    /// `lru_mutex`.
    alignas(64) Session* lru_prev = nullptr;
    Session* lru_next = nullptr;
    std::uint64_t since_restore = 0;    // events since creation/rehydration
    /// Residency mirror of `detector != nullptr`, readable off-thread by
    /// `SnapshotSessions` without touching the worker-owned pointer.
    std::atomic<bool> resident{true};
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::int64_t> last_step_t{0};
    std::atomic<std::uint64_t> last_event_ns{0};
    std::deque<SessionStepResult> results;  // ring; guarded by shard mutex
  };

  struct QueuedEvent {
    Session* session = nullptr;
    core::StreamVector values;
  };

  struct Shard {
    explicit Shard(std::size_t capacity, std::size_t watermark)
        : queue(capacity, watermark) {}
    harness::BoundedQueue<QueuedEvent> queue;
    std::thread worker;
    /// Recency list of the shard's resident sessions: `lru_head` is the
    /// most recently stepped, `lru_tail` the next eviction victim. The
    /// never-stepped sessions form the tail segment starting at
    /// `lru_cold` (newest-created first, so the oldest-created is evicted
    /// first); null when there are none. Written by the shard worker
    /// (step, evict, rehydrate) and by `CreateSession`; lock order is
    /// `sessions_mutex_` -> `lru_mutex`, never the reverse.
    std::mutex lru_mutex;
    Session* lru_head = nullptr;
    Session* lru_tail = nullptr;
    Session* lru_cold = nullptr;
    /// Length of the recency list. Relaxed: it moves with the list under
    /// `lru_mutex`, and the off-thread readers (`Stats`, `SnapshotShards`)
    /// only need a recent value, so the worker never takes
    /// `sessions_mutex_` to keep it.
    std::atomic<std::size_t> resident_count{0};
    std::mutex results_mutex;     // guards Session::results of this shard
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* step_ns = nullptr;
    obs::QuantileSketch* step_sketch = nullptr;
    obs::Histogram* queue_wait_ns = nullptr;
    obs::QuantileSketch* queue_wait_sketch = nullptr;
    obs::Gauge* stalled_gauge = nullptr;
    /// Submission sequence driving timing-sample selection (every Nth
    /// submitted event gets an enqueue stamp); relaxed — sampling needs
    /// no ordering. Cache-line-aligned: it is written by submitter
    /// threads every event, and sharing a line with the worker-written
    /// counters below would ping-pong that line once per event.
    alignas(64) std::atomic<std::uint64_t> submit_seq{0};
    /// Dequeues completed by this shard's worker (the watchdog's progress
    /// signal — it advances even when metrics are off).
    alignas(64) std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> last_progress_ns{0};
    /// Written by the watchdog alone, set with release once the stall
    /// dump is finished; readers acquire.
    std::atomic<bool> stalled{false};
    /// Test hook (`HoldShardForTest`): the worker parks on `hold_cv`
    /// before its next dequeue while this is set.
    std::atomic<bool> held_for_test{false};
    std::mutex hold_mutex;
    std::condition_variable hold_cv;
  };

  /// Shared admission core of `Submit` and `SubmitBatch`: stamps, reserves
  /// queue slots and decides admissions for a run of `count` staged events
  /// that all belong to `session`. `stamps` is caller-provided scratch of
  /// the same length (so the hot single-event path can use stack storage).
  void SubmitRun(Session* session, QueuedEvent* events, std::uint64_t* stamps,
                 std::size_t count, Admission* admissions);
  void WorkerLoop(Shard* shard);
  void WatchdogLoop();
  /// Best-effort flight-recorder dump for every session of a stalled
  /// shard (the shard's worker is not progressing, so its rings are
  /// quiescent in the scenarios the watchdog fires for).
  void DumpStalledShardFlights(std::size_t shard_index);
  /// `dequeue_ns` is the instant the worker popped the event (0 when the
  /// event was unstamped); it doubles as the step-timing start so the hot
  /// path reads the clock once per side of the detector step.
  void ProcessEvent(Shard* shard, Session* session,
                    const core::StreamVector& values, std::uint64_t wait_ns,
                    std::uint64_t dequeue_ns);
  void DeliverResult(Shard* shard, Session* session,
                     const SessionStepResult& result);
  /// Rebuilds + LoadStates an evicted session. Returns false (and poisons
  /// the session) on store or archive errors.
  bool RestoreSession(Session* session);
  /// SaveStates `session` into the store and releases its detector.
  /// Returns false when serialisation or the store write fails; the
  /// session then simply stays resident.
  bool EvictSession(Shard* shard, Session* session);
  /// Evicts sessions of `shard` from the back of its recency list (never
  /// `current`, which sits at the front) while the shard's resident count
  /// exceeds the cache bound. O(1) per victim: no scan over `sessions_`,
  /// no allocation, no `sessions_mutex_`. A victim whose eviction fails
  /// stays linked and the walk moves past it, so a persistent store error
  /// leaves the shard over its cap rather than wedged.
  void EnforceResidencyCap(Shard* shard, Session* current);
  /// Recency-list primitives; the caller holds `shard->lru_mutex` and
  /// keeps `resident_count` in step. `next == nullptr` appends at the back.
  static void LruInsertBefore(Shard* shard, Session* session, Session* next);
  static void LruUnlink(Shard* shard, Session* session);
  Session* FindSession(const std::string& stream_id) const;
  void FinishEvent();
  /// Builds one `/sessions` row. Caller holds `sessions_mutex_`.
  SessionSnapshot MakeSessionSnapshot(const Session& session) const;

  FleetOptions options_;
  /// `timing_sample_every` rounded up to a power of two, minus one; a
  /// submit is stamped when `(seq & mask) == 0`.
  std::uint64_t timing_sample_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;

  std::atomic<std::uint64_t> inflight_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  bool stopped_ = false;  // guarded by sessions_mutex_

  /// Steps taken fleet-wide. Not only a count: its release increment
  /// right after each step, acquired by the watchdog's stall dump,
  /// publishes the flight-ring writes that dump reads.
  std::atomic<std::uint64_t> processed_{0};

  /// `options_.metrics` is set: the fleet's timing path is on.
  const bool metered_;
  /// Holds every instrument when `options_.metrics` is null.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// The counts behind `Stats()`; the registry is their only copy.
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* anomalies_counter_ = nullptr;
  obs::Counter* throttled_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* rehydrations_counter_ = nullptr;
  obs::Counter* rehydrate_failures_counter_ = nullptr;
  obs::Counter* result_overflow_counter_ = nullptr;
  obs::Gauge* stalled_shards_gauge_ = nullptr;
  obs::Counter* shard_stalls_counter_ = nullptr;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mutex_
};

}  // namespace streamad::serve

#endif  // STREAMAD_SERVE_FLEET_H_
