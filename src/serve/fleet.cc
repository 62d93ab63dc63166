#include "src/serve/fleet.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/timer.h"

namespace streamad::serve {
namespace {

/// The recorder a session's telemetry flows through, whoever owns it.
obs::Recorder* SessionRecorder(
    const std::unique_ptr<obs::Recorder>& owned,
    obs::Recorder* attached) {
  return owned != nullptr ? owned.get() : attached;
}

}  // namespace

const char* ToString(Admission admission) {
  switch (admission) {
    case Admission::kQueued: return "queued";
    case Admission::kThrottled: return "throttled";
    case Admission::kDropped: return "dropped";
  }
  return "?";
}

DetectorFleet::DetectorFleet(const FleetOptions& options)
    : options_(options), metered_(options.metrics != nullptr) {
  STREAMAD_CHECK_MSG(options_.shards > 0, "fleet needs at least one shard");
  STREAMAD_CHECK_MSG(options_.queue_capacity > 0,
                     "shard queues need positive capacity");
  STREAMAD_CHECK_MSG(options_.timing_sample_every >= 1,
                     "timing_sample_every must be >= 1");
  timing_sample_mask_ = std::bit_ceil<std::uint64_t>(
                            options_.timing_sample_every) - 1;
  const bool evicting = options_.max_resident_per_shard > 0 ||
                        options_.force_evict_every > 0;
  STREAMAD_CHECK_MSG(!evicting || options_.store != nullptr,
                     "session eviction requires a checkpoint store");
  if (metered_) {
    // The first NowNs() of the process calibrates the TSC clock (a ~2 ms
    // spin, see obs::internal::TscClock); trigger it here so it can never
    // land inside a measured serving window.
    (void)obs::NowNs();
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry* metrics =
      metered_ ? options_.metrics : owned_metrics_.get();
  events_counter_ = metrics->GetCounter("streamad_serve_events_total");
  anomalies_counter_ = metrics->GetCounter("streamad_serve_anomalies_total");
  throttled_counter_ = metrics->GetCounter("streamad_serve_throttled_total");
  dropped_counter_ = metrics->GetCounter("streamad_serve_dropped_total");
  evictions_counter_ = metrics->GetCounter("streamad_serve_evictions_total");
  rehydrations_counter_ =
      metrics->GetCounter("streamad_serve_rehydrations_total");
  rehydrate_failures_counter_ =
      metrics->GetCounter("streamad_serve_rehydrate_failures_total");
  result_overflow_counter_ =
      metrics->GetCounter("streamad_serve_result_overflow_total");
  stalled_shards_gauge_ = metrics->GetGauge("streamad_serve_stalled_shards");
  shard_stalls_counter_ =
      metrics->GetCounter("streamad_serve_shard_stalls_total");
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity,
                                         options_.throttle_watermark);
    const std::string prefix =
        "streamad_serve_shard" + std::to_string(i) + "_";
    shard->queue_depth = metrics->GetGauge(prefix + "queue_depth");
    shard->step_ns = metrics->GetHistogram(prefix + "step_ns",
                                           obs::Recorder::LatencyBucketsNs());
    shard->step_sketch = metrics->GetSketch(prefix + "step_ns_summary");
    shard->queue_wait_ns = metrics->GetHistogram(
        prefix + "queue_wait_ns", obs::Recorder::LatencyBucketsNs());
    shard->queue_wait_sketch =
        metrics->GetSketch(prefix + "queue_wait_ns_summary");
    shard->stalled_gauge = metrics->GetGauge(prefix + "stalled");
    shards_.push_back(std::move(shard));
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { WorkerLoop(raw); });
  }
  if (options_.watchdog_poll_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

DetectorFleet::~DetectorFleet() { Stop(); }

std::size_t DetectorFleet::ShardOf(const std::string& stream_id) const {
  return std::hash<std::string>{}(stream_id) % options_.shards;
}

core::Status DetectorFleet::CreateSession(const std::string& stream_id,
                                          const SessionConfig& config) {
  if (stream_id.empty()) {
    return core::Status::InvalidArgument("stream id must be non-empty");
  }
  auto session = std::make_unique<Session>();
  session->id = stream_id;
  session->config = config;
  session->shard = ShardOf(stream_id);
  session->detector = core::BuildDetector(config.spec, config.score,
                                          config.detector, config.seed);
  if (config.run.recorder != nullptr) {
    session->detector->set_recorder(config.run.recorder);
  } else if (config.run.metrics != nullptr) {
    harness::RunOptions run = config.run;
    if (run.label.empty()) run.label = stream_id;
    session->recorder = std::make_unique<obs::Recorder>(
        run.metrics, harness::ToRecorderOptions(run));
    session->detector->set_recorder(session->recorder.get());
  }
  // Quality analytics: a recorder that carries its own instance feeds it
  // from EndStep; otherwise a fleet-level opt-in attaches a fleet-fed
  // instance updated by the shard worker. Either way the state lives
  // outside the detector and survives eviction cycles.
  if (session->recorder != nullptr &&
      session->recorder->score_analytics() != nullptr) {
    session->analytics = session->recorder->score_analytics();
  } else if (config.run.recorder != nullptr &&
             config.run.recorder->score_analytics() != nullptr) {
    session->analytics = config.run.recorder->score_analytics();
  } else if (options_.session_analytics) {
    session->analytics_storage =
        std::make_unique<obs::ScoreAnalytics>(options_.analytics);
    session->analytics = session->analytics_storage.get();
  }
  session->wants_timing =
      config.run.recorder != nullptr || config.run.metrics != nullptr;
  // Same TSC warm-up as the constructor, for timed sessions on an
  // otherwise metrics-free fleet.
  if (session->wants_timing) (void)obs::NowNs();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (stopped_) {
    return core::Status::FailedPrecondition("fleet is stopped");
  }
  if (sessions_.count(stream_id) != 0) {
    return core::Status::InvalidArgument("session already exists: " +
                                         stream_id);
  }
  Shard* shard = shards_[session->shard].get();
  Session* raw = session.get();
  sessions_.emplace(stream_id, std::move(session));
  std::lock_guard<std::mutex> lru_lock(shard->lru_mutex);
  // Never stepped: the newest member of the cold tail segment, so cold
  // sessions leave in creation order and before any stepped one.
  LruInsertBefore(shard, raw, shard->lru_cold);
  shard->lru_cold = raw;
  shard->resident_count.fetch_add(1, std::memory_order_relaxed);
  return core::Status::Ok();
}

DetectorFleet::Session* DetectorFleet::FindSession(
    const std::string& stream_id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(stream_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

// STREAMAD_HOT: the shared admission core of Submit and SubmitBatch — one
// timing-sequence reservation, one bounded-queue reservation and the
// per-event admission decisions for a run of `count` staged events, all of
// one session. Allocation-free: events and stamp scratch are caller-owned.
void DetectorFleet::SubmitRun(Session* session, QueuedEvent* events,
                              std::uint64_t* stamps, std::size_t count,
                              Admission* admissions) {
  Shard* shard = shards_[session->shard].get();
  // Stamp the enqueue instant only when someone downstream attributes it
  // (fleet metrics or a session recorder), and then only for one event in
  // `timing_sample_every`: the metrics-free path stays clock-free, and
  // the metered path pays for clock reads and latency observations at the
  // sampling rate rather than per event. Stamp 0 means "unstamped" to the
  // worker, which skips the whole timing path for that event. The whole
  // run shares one clock read — its events enqueue at the same instant.
  std::uint64_t now = 0;
  if (metered_ || session->wants_timing) {
    const std::uint64_t base_seq =
        shard->submit_seq.fetch_add(count, std::memory_order_relaxed);
    for (std::size_t k = 0; k < count; ++k) {
      if (((base_seq + k) & timing_sample_mask_) == 0) {
        if (now == 0) now = obs::NowNs();
        stamps[k] = now;
      } else {
        stamps[k] = 0;
      }
    }
  } else {
    for (std::size_t k = 0; k < count; ++k) stamps[k] = 0;
  }
  // Count the events in-flight BEFORE the push so a concurrent WaitIdle
  // cannot observe an empty queue between push and worker pickup.
  inflight_.fetch_add(count, std::memory_order_relaxed);
  std::size_t base_depth = 0;
  const std::size_t admitted =
      shard->queue.TryPushMany(events, stamps, count, &base_depth);
  // The depth gauge is a point-in-time sample, so it rides the timing
  // sample too: refreshing it per event would put a submitter-and-worker
  // shared cache line on the full-rate path for a value scrapes only see
  // occasionally anyway.
  if (now != 0) {
    shard->queue_depth->Set(static_cast<double>(shard->queue.size()));
  }
  const std::size_t watermark = shard->queue.watermark();
  std::size_t throttled = 0;
  for (std::size_t k = 0; k < admitted; ++k) {
    // Same outcome a lone TryPush would have reported at this depth.
    if (base_depth + k + 1 >= watermark) {
      admissions[k] = Admission::kThrottled;
      ++throttled;
    } else {
      admissions[k] = Admission::kQueued;
    }
  }
  if (admitted > 0) events_counter_->Add(admitted);
  if (throttled > 0) throttled_counter_->Add(throttled);
  if (admitted < count) {
    const std::size_t rejected = count - admitted;
    for (std::size_t k = admitted; k < count; ++k) {
      admissions[k] = Admission::kDropped;
      FinishEvent();
    }
    session->dropped.fetch_add(rejected, std::memory_order_relaxed);
    dropped_counter_->Add(rejected);
  }
}

// STREAMAD_HOT: fleet ingress — one session lookup, then the shared run
// core with stack scratch; the unavoidable allocation is the queue's copy
// of the stream vector (it must own the event).
Admission DetectorFleet::Submit(const std::string& stream_id,
                                const core::StreamVector& s) {
  Session* session = FindSession(stream_id);
  STREAMAD_CHECK_MSG(session != nullptr, "Submit for unknown stream id");
  QueuedEvent event;
  event.session = session;
  event.values = s;
  std::uint64_t stamp = 0;
  Admission admission = Admission::kDropped;
  SubmitRun(session, &event, &stamp, 1, &admission);
  return admission;
}

void DetectorFleet::SubmitBatch(std::span<const Event> events,
                                Admission* admissions) {
  STREAMAD_CHECK(admissions != nullptr || events.empty());
  std::vector<QueuedEvent> staged;
  std::vector<std::uint64_t> stamps;
  std::size_t i = 0;
  while (i < events.size()) {
    // A run of consecutive same-id events shares one lookup + reservation.
    std::size_t j = i + 1;
    while (j < events.size() &&
           events[j].stream_id == events[i].stream_id) {
      ++j;
    }
    Session* session = FindSession(events[i].stream_id);
    STREAMAD_CHECK_MSG(session != nullptr, "SubmitBatch for unknown stream id");
    const std::size_t n = j - i;
    staged.clear();
    staged.resize(n);
    stamps.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      staged[k].session = session;
      staged[k].values = events[i + k].values;
    }
    SubmitRun(session, staged.data(), stamps.data(), n, admissions + i);
    i = j;
  }
}

void DetectorFleet::WorkerLoop(Shard* shard) {
  QueuedEvent event;
  std::uint64_t stamp = 0;
  while (true) {
    if (shard->held_for_test.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(shard->hold_mutex);
      shard->hold_cv.wait(lock, [shard] {
        return !shard->held_for_test.load(std::memory_order_acquire);
      });
    }
    if (!shard->queue.Pop(&event, &stamp)) break;
    const bool timed_wait = stamp != 0;
    std::uint64_t wait_ns = 0;
    std::uint64_t dequeue_ns = 0;
    if (timed_wait) {
      dequeue_ns = obs::NowNs();
      wait_ns = dequeue_ns > stamp ? dequeue_ns - stamp : 0;
      if (metered_) {
        shard->queue_wait_ns->Observe(static_cast<double>(wait_ns));
        shard->queue_wait_sketch->Observe(static_cast<double>(wait_ns));
      }
      shard->last_progress_ns.store(dequeue_ns, std::memory_order_relaxed);
      event.session->last_event_ns.store(dequeue_ns,
                                         std::memory_order_relaxed);
      shard->queue_depth->Set(static_cast<double>(shard->queue.size()));
    }
    ProcessEvent(shard, event.session, event.values, wait_ns, dequeue_ns);
    shard->processed.fetch_add(1, std::memory_order_relaxed);
    FinishEvent();
  }
}

// STREAMAD_HOT: the fleet's per-event path. The resident fast path is one
// detector step plus result delivery; rehydration and eviction are cold
// helpers so their (unavoidable) serialisation work stays out of this
// block.
void DetectorFleet::ProcessEvent(Shard* shard, Session* session,
                                 const core::StreamVector& values,
                                 std::uint64_t wait_ns,
                                 std::uint64_t dequeue_ns) {
  const bool timed_wait = dequeue_ns != 0;
  if (!session->health.ok() ||
      (session->detector == nullptr && !RestoreSession(session))) {
    // Poisoned session (a failed rehydration, now or earlier): drop, don't
    // crash the fleet.
    session->dropped.fetch_add(1, std::memory_order_relaxed);
    dropped_counter_->Increment();
    return;
  }
  if (options_.max_resident_per_shard > 0) {
    {
      std::lock_guard<std::mutex> lock(shard->lru_mutex);
      LruUnlink(shard, session);
      LruInsertBefore(shard, session, shard->lru_head);
    }
    EnforceResidencyCap(shard, session);
  }
  if (timed_wait) {
    obs::Recorder* recorder =
        SessionRecorder(session->recorder, session->config.run.recorder);
    // Feed the wait to the session's recorder right before the step so
    // `BeginStep` claims it as this step's `queue_wait` stage.
    if (recorder != nullptr) recorder->RecordQueueWait(wait_ns);
  }
  // Step latency rides the same sampling as the enqueue stamp, and a
  // stamped event's dequeue instant doubles as the step-timing start: the
  // timing path reads the clock once per side of the detector step, and
  // unstamped events never read it at all. step_ns therefore runs
  // dequeue -> step end, which folds in the session bookkeeping above
  // (ns-scale) and, on the cold path, a rehydration — an honest "time to
  // serve this event once dequeued".
  const bool timed = metered_ && timed_wait;
  // Fleet-fed quality analytics read the step's observation straight from
  // the detector; other sessions skip building it.
  const bool fleet_fed = session->analytics_storage != nullptr;
  obs::StepObservation observation;
  const core::StreamingDetector::StepResult step = session->detector->Step(
      values, fleet_fed ? &observation : nullptr);
  if (timed) {
    const double elapsed = static_cast<double>(obs::NowNs() - dequeue_ns);
    shard->step_ns->Observe(elapsed);
    shard->step_sketch->Observe(elapsed);
  }
  ++session->since_restore;
  // Release: publishes the step's flight-ring writes, before `on_result`
  // runs, to a stall dump (see `DumpStalledShardFlights`), also when the
  // worker then wedges inside the callback.
  processed_.fetch_add(1, std::memory_order_release);
  session->processed.fetch_add(1, std::memory_order_relaxed);
  session->last_step_t.store(session->detector->t(),
                             std::memory_order_relaxed);
  if (fleet_fed && session->analytics->OnStep(observation)) {
    anomalies_counter_->Increment();
  }
  if (step.scored) {
    SessionStepResult result;
    result.t = session->detector->t();
    result.step = step;
    DeliverResult(shard, session, result);
  }
  if (options_.force_evict_every > 0 &&
      session->since_restore >= options_.force_evict_every) {
    EvictSession(shard, session);
  }
}

void DetectorFleet::DeliverResult(Shard* shard, Session* session,
                                  const SessionStepResult& result) {
  if (session->config.on_result) {
    // Shard workers are the only callers, one per shard: callbacks of one
    // session are serialised without any lock.
    session->config.on_result(session->id, result);
    return;
  }
  std::lock_guard<std::mutex> lock(shard->results_mutex);
  session->results.push_back(result);
  if (session->results.size() > options_.result_ring_capacity) {
    session->results.pop_front();
    result_overflow_counter_->Increment();
  }
}

bool DetectorFleet::RestoreSession(Session* session) {
  Shard* shard = shards_[session->shard].get();
  std::string blob;
  core::Status status = options_.store->Get(session->id, &blob);
  if (status.ok()) {
    auto detector =
        core::BuildDetector(session->config.spec, session->config.score,
                            session->config.detector, session->config.seed);
    std::istringstream in(std::move(blob));
    status = detector->LoadState(&in);
    if (status.ok()) session->detector = std::move(detector);
  }
  if (!status.ok()) {
    rehydrate_failures_counter_->Increment();
    std::lock_guard<std::mutex> lock(shard->results_mutex);
    session->health = core::Status(
        status.code(), "rehydration of '" + session->id +
                           "' failed: " + status.message());
    return false;
  }
  if (session->recorder != nullptr) {
    session->detector->set_recorder(session->recorder.get());
  } else if (session->config.run.recorder != nullptr) {
    session->detector->set_recorder(session->config.run.recorder);
  }
  session->since_restore = 0;
  session->resident.store(true, std::memory_order_relaxed);
  rehydrations_counter_->Increment();
  std::lock_guard<std::mutex> lock(shard->lru_mutex);
  LruInsertBefore(shard, session, shard->lru_head);
  shard->resident_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DetectorFleet::EvictSession(Shard* shard, Session* session) {
  std::ostringstream out;
  core::Status status = session->detector->SaveState(&out);
  if (status.ok()) {
    status = options_.store->Put(session->id, std::move(out).str());
  }
  if (!status.ok()) {
    // A session that cannot be serialised simply stays resident; eviction
    // is an optimisation, not a correctness requirement.
    return false;
  }
  session->detector.reset();
  session->resident.store(false, std::memory_order_relaxed);
  evictions_counter_->Increment();
  std::lock_guard<std::mutex> lock(shard->lru_mutex);
  LruUnlink(shard, session);
  shard->resident_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void DetectorFleet::EnforceResidencyCap(Shard* shard, Session* current) {
  // Victims come off the back of the recency list. One whose eviction
  // fails (SaveState unimplemented, the store's disk full, ...) stays
  // linked, so the walk resumes at its predecessor instead of re-reading
  // the tail — re-picking the same victim forever would wedge the shard
  // worker. Only this worker unlinks sessions of its shard, so a linked
  // `unevictable` keeps a valid predecessor across the unlocked evictions.
  Session* unevictable = nullptr;
  // Relaxed: only this worker lowers the count; a concurrent
  // CreateSession raising it is picked up by the next event.
  while (shard->resident_count.load(std::memory_order_relaxed) >
         options_.max_resident_per_shard) {
    Session* victim = nullptr;
    {
      std::lock_guard<std::mutex> lock(shard->lru_mutex);
      victim = unevictable == nullptr ? shard->lru_tail : unevictable->lru_prev;
    }
    // Reached the front, where the active session sits: nothing else is
    // evictable, so stay over the cap.
    if (victim == nullptr || victim == current) return;
    if (!EvictSession(shard, victim)) unevictable = victim;
  }
}

void DetectorFleet::LruInsertBefore(Shard* shard, Session* session,
                                    Session* next) {
  session->lru_next = next;
  session->lru_prev = next != nullptr ? next->lru_prev : shard->lru_tail;
  (session->lru_prev != nullptr ? session->lru_prev->lru_next
                                : shard->lru_head) = session;
  (next != nullptr ? next->lru_prev : shard->lru_tail) = session;
}

void DetectorFleet::LruUnlink(Shard* shard, Session* session) {
  if (shard->lru_cold == session) shard->lru_cold = session->lru_next;
  (session->lru_prev != nullptr ? session->lru_prev->lru_next
                                : shard->lru_head) = session->lru_next;
  (session->lru_next != nullptr ? session->lru_next->lru_prev
                                : shard->lru_tail) = session->lru_prev;
  session->lru_prev = nullptr;
  session->lru_next = nullptr;
}

std::size_t DetectorFleet::Poll(const std::string& stream_id,
                                std::vector<SessionStepResult>* out,
                                std::size_t limit) {
  STREAMAD_CHECK(out != nullptr);
  Session* session = FindSession(stream_id);
  STREAMAD_CHECK_MSG(session != nullptr, "Poll for unknown stream id");
  Shard* shard = shards_[session->shard].get();
  std::lock_guard<std::mutex> lock(shard->results_mutex);
  std::size_t moved = 0;
  while (!session->results.empty() && (limit == 0 || moved < limit)) {
    out->push_back(session->results.front());
    session->results.pop_front();
    ++moved;
  }
  return moved;
}

core::Status DetectorFleet::SessionHealth(const std::string& stream_id) const {
  Session* session = FindSession(stream_id);
  if (session == nullptr) {
    return core::Status::NotFound("unknown session: " + stream_id);
  }
  Shard* shard = shards_[session->shard].get();
  std::lock_guard<std::mutex> lock(shard->results_mutex);
  return session->health;
}

void DetectorFleet::WaitIdle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void DetectorFleet::FinishEvent() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

bool DetectorFleet::stopped() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return stopped_;
}

void DetectorFleet::Stop() {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Release any test holds so parked workers can reach the closed queue.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->hold_mutex);
      shard->held_for_test.store(false, std::memory_order_release);
    }
    shard->hold_cv.notify_all();
  }
  for (const std::unique_ptr<Shard>& shard : shards_) shard->queue.Close();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void DetectorFleet::HoldShardForTest(std::size_t shard_index, bool hold) {
  STREAMAD_CHECK(shard_index < shards_.size());
  Shard* shard = shards_[shard_index].get();
  {
    std::lock_guard<std::mutex> lock(shard->hold_mutex);
    shard->held_for_test.store(hold, std::memory_order_release);
  }
  shard->hold_cv.notify_all();
}

bool DetectorFleet::healthy() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->stalled.load(std::memory_order_acquire)) return false;
  }
  return true;
}

void DetectorFleet::WatchdogLoop() {
  // Stall detection works off the per-shard dequeue counter, not
  // timestamps: `processed` advances for every event on every
  // configuration, including metrics-free fleets.
  std::vector<std::uint64_t> last_processed(shards_.size(), 0);
  std::vector<std::uint64_t> stagnant_since(shards_.size(), 0);
  const std::uint64_t window_ns =
      static_cast<std::uint64_t>(options_.stall_window_ms) * 1000000ull;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mutex_);
      watchdog_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.watchdog_poll_ms),
          [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    const std::uint64_t now = obs::NowNs();
    std::size_t stalled_count = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard* shard = shards_[i].get();
      const std::uint64_t processed =
          shard->processed.load(std::memory_order_relaxed);
      const bool progressed = processed != last_processed[i];
      last_processed[i] = processed;
      // A shard is only suspect while events are actually queued; an idle
      // worker blocked in Pop is healthy.
      if (progressed || shard->queue.size() == 0) {
        stagnant_since[i] = now;
        if (shard->stalled.exchange(false, std::memory_order_relaxed)) {
          shard->stalled_gauge->Set(0.0);
        }
        continue;
      }
      if (stagnant_since[i] == 0) stagnant_since[i] = now;
      if (now - stagnant_since[i] >= window_ns &&
          !shard->stalled.load(std::memory_order_relaxed)) {
        // Stall transition: count it, capture the post-mortem while the
        // evidence is still in the rings, then mark the shard. Release
        // (only this thread writes `stalled`): whoever sees the mark sees
        // a finished dump, and a hold released after it cannot let the
        // worker write a ring the dump is still reading.
        shard_stalls_counter_->Increment();
        shard->stalled_gauge->Set(1.0);
        DumpStalledShardFlights(i);
        shard->stalled.store(true, std::memory_order_release);
      }
      if (shard->stalled.load(std::memory_order_relaxed)) ++stalled_count;
    }
    stalled_shards_gauge_->Set(static_cast<double>(stalled_count));
  }
}

void DetectorFleet::DumpStalledShardFlights(std::size_t shard_index) {
  // Acquire: pairs with the release in `ProcessEvent`, so every ring
  // write of a step the fleet has counted happens before this dump.
  processed_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (const auto& [id, session] : sessions_) {
    if (session->shard != shard_index) continue;
    obs::Recorder* recorder =
        SessionRecorder(session->recorder, session->config.run.recorder);
    if (recorder == nullptr) continue;
    obs::FlightRecorder* flight = recorder->flight_recorder();
    if (flight != nullptr) flight->DumpToPath("shard_stall");
  }
}

SessionSnapshot DetectorFleet::MakeSessionSnapshot(
    const Session& session) const {
  SessionSnapshot snap;
  snap.id = session.id;
  snap.shard = session.shard;
  snap.resident = session.resident.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> health_lock(
        shards_[session.shard]->results_mutex);
    snap.healthy = session.health.ok();
    if (!snap.healthy) snap.health_message = session.health.message();
  }
  snap.processed = session.processed.load(std::memory_order_relaxed);
  snap.dropped = session.dropped.load(std::memory_order_relaxed);
  snap.last_step_t = session.last_step_t.load(std::memory_order_relaxed);
  snap.last_event_ns = session.last_event_ns.load(std::memory_order_relaxed);
  return snap;
}

std::vector<SessionSnapshot> DetectorFleet::SnapshotSessions() const {
  std::vector<SessionSnapshot> snapshots;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    snapshots.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      snapshots.push_back(MakeSessionSnapshot(*session));
    }
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const SessionSnapshot& a, const SessionSnapshot& b) {
              return a.id < b.id;
            });
  return snapshots;
}

bool DetectorFleet::SnapshotSession(const std::string& stream_id,
                                    SessionDetail* out) const {
  STREAMAD_CHECK(out != nullptr);
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) return false;
  const Session& session = *it->second;
  out->session = MakeSessionSnapshot(session);
  out->has_analytics = session.analytics != nullptr;
  if (out->has_analytics) out->analytics = session.analytics->Snap();
  return true;
}

std::vector<SessionQuality> DetectorFleet::SnapshotQuality() const {
  std::vector<SessionQuality> rows;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    rows.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      if (session->analytics == nullptr) continue;
      SessionQuality row;
      row.id = id;
      row.shard = session->shard;
      row.processed = session->processed.load(std::memory_order_relaxed);
      row.analytics = session->analytics->Snap();
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const SessionQuality& a, const SessionQuality& b) {
              return a.id < b.id;
            });
  return rows;
}

std::vector<ShardSnapshot> DetectorFleet::SnapshotShards() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard* shard = shards_[i].get();
    ShardSnapshot snap;
    snap.index = i;
    snap.queue_depth = shard->queue.size();
    snap.resident = shard->resident_count.load(std::memory_order_relaxed);
    snap.processed = shard->processed.load(std::memory_order_relaxed);
    snap.stalled = shard->stalled.load(std::memory_order_acquire);
    snap.last_progress_ns =
        shard->last_progress_ns.load(std::memory_order_relaxed);
    snapshots.push_back(snap);
  }
  return snapshots;
}

FleetStats DetectorFleet::Stats() const {
  FleetStats stats;
  stats.submitted = events_counter_->Value();
  stats.processed = processed_.load(std::memory_order_relaxed);
  stats.throttled = throttled_counter_->Value();
  stats.dropped = dropped_counter_->Value();
  stats.evictions = evictions_counter_->Value();
  stats.rehydrations = rehydrations_counter_->Value();
  stats.rehydrate_failures = rehydrate_failures_counter_->Value();
  stats.result_overflow = result_overflow_counter_->Value();
  stats.anomalies = anomalies_counter_->Value();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  stats.sessions = sessions_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    stats.resident_sessions +=
        shard->resident_count.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace streamad::serve
