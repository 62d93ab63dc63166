#include "src/serve/ingress_service.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/obs/metrics.h"

namespace streamad::serve {

namespace {

/// SCORE_BATCH frames are chunked so one drain can never breach the wire
/// payload cap no matter how many scores piled up.
constexpr std::size_t kScoresPerFrame = 4096;

/// NACK frames are chunked for the same reason: a legal 16 MiB EVENT_BATCH
/// holds close to a million minimal events, and a held/full shard can NACK
/// every one of them — unchunked, that reply would breach kMaxPayloadBytes
/// and trip the encoder's CHECK. 4096 entries of at most ~9 + 128 bytes
/// each stay far below the cap.
constexpr std::size_t kNacksPerFrame = 4096;

/// NACK details echo client-supplied stream ids; cap the echo so a hostile
/// multi-megabyte id cannot inflate a single NACK entry past the frame
/// payload cap.
constexpr std::size_t kNackDetailIdBytes = 96;

std::string TruncatedId(const std::string& id) {
  if (id.size() <= kNackDetailIdBytes) return id;
  return id.substr(0, kNackDetailIdBytes) + "...";
}

}  // namespace

IngressService::IngressService(DetectorFleet* fleet)
    : IngressService(fleet, Options()) {}

IngressService::IngressService(DetectorFleet* fleet, Options options)
    : fleet_(fleet),
      options_(std::move(options)),
      server_(net::IngressServer::Options{.server_name = options_.server_name,
                                          .features = options_.features,
                                          .metrics = options_.metrics}),
      router_(std::make_shared<Router>()) {
  router_->server = &server_;
  router_->max_pending_scores = options_.max_pending_scores;
  net::IngressServer::Hooks hooks;
  hooks.on_event_batch = [this](ConnectionId conn,
                                const wire::EventBatchFrame& batch) {
    return OnEventBatch(conn, batch);
  };
  hooks.on_health = [this] { return OnHealth(); };
  hooks.on_drain = [this](ConnectionId conn) { return OnDrain(conn); };
  hooks.on_disconnect = [this](ConnectionId conn) { OnDisconnect(conn); };
  server_.set_hooks(std::move(hooks));
  obs::MetricsRegistry* metrics = server_.metrics();
  nack_throttled_ =
      metrics->GetCounter("streamad_ingress_nack_throttled_total");
  nack_dropped_ = metrics->GetCounter("streamad_ingress_nack_dropped_total");
  nack_unknown_stream_ =
      metrics->GetCounter("streamad_ingress_nack_unknown_stream_total");
  router_->results_shed =
      metrics->GetCounter("streamad_ingress_results_shed_total");
}

IngressService::~IngressService() { Stop(); }

core::Status IngressService::CreateSession(const std::string& stream_id,
                                           SessionConfig config) {
  // Chain rather than replace: a session may want its own callback too.
  // Capture the shared Router, never `this`: the session (and the shard
  // workers invoking its callback) can outlive the service.
  auto downstream = std::move(config.on_result);
  config.on_result = [router = router_, downstream = std::move(downstream)](
                         const std::string& id,
                         const SessionStepResult& result) {
    RouteResult(router, id, result);
    if (downstream) downstream(id, result);
  };
  if (core::Status status = fleet_->CreateSession(stream_id, config);
      !status.ok()) {
    return status;
  }
  std::lock_guard<std::mutex> lock(router_->mutex);
  router_->widths.emplace(stream_id, 0);
  return core::Status::Ok();
}

core::Status IngressService::Start(std::uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(router_->mutex);
    router_->server = &server_;
  }
  return server_.Start(port);
}

void IngressService::Stop() {
  // Detach the router first: once `server` is null no result callback can
  // touch the server object we are about to stop (and later destroy).
  {
    std::lock_guard<std::mutex> lock(router_->mutex);
    router_->server = nullptr;
  }
  server_.Stop();
}

std::string IngressService::OnEventBatch(ConnectionId conn,
                                         const wire::EventBatchFrame& batch) {
  std::vector<wire::NackEntry> nacks;
  std::vector<Event> staged;
  std::vector<std::size_t> original_index;
  staged.reserve(batch.events.size());
  original_index.reserve(batch.events.size());
  {
    std::lock_guard<std::mutex> lock(router_->mutex);
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
      const wire::WireEvent& event = batch.events[i];
      const auto known = router_->widths.find(event.stream_id);
      if (known == router_->widths.end()) {
        nacks.push_back(wire::NackEntry{
            static_cast<std::uint32_t>(i), wire::NackCode::kUnknownStream,
            "no session named " + TruncatedId(event.stream_id)});
        nack_unknown_stream_->Increment();
        continue;
      }
      // A detector aborts on an empty event or a changed channel count, so
      // the shape is checked here, against the width the stream's first
      // staged event pinned.
      std::size_t& width = known->second;
      if (width == 0) width = event.values.size();
      if (event.values.empty() || event.values.size() != width) {
        nacks.push_back(wire::NackEntry{
            static_cast<std::uint32_t>(i), wire::NackCode::kMalformed,
            event.values.empty()
                ? std::string("empty event")
                : std::to_string(event.values.size()) +
                      " values; the stream takes " + std::to_string(width)});
        continue;
      }
      // Latest submitter wins the route: scores flow back to whichever
      // connection most recently fed the stream.
      router_->routes[event.stream_id] = conn;
      staged.push_back(Event{event.stream_id, event.values});
      original_index.push_back(i);
    }
  }

  if (!staged.empty()) {
    std::vector<Admission> admissions(staged.size());
    fleet_->SubmitBatch(std::span<const Event>(staged), admissions.data());
    for (std::size_t k = 0; k < admissions.size(); ++k) {
      if (admissions[k] == Admission::kQueued) continue;
      bool dropped = admissions[k] == Admission::kDropped;
      nacks.push_back(wire::NackEntry{
          static_cast<std::uint32_t>(original_index[k]),
          dropped ? wire::NackCode::kDropped : wire::NackCode::kThrottled,
          dropped ? "shard queue full; event lost"
                  : "shard queue at watermark; queued anyway"});
      (dropped ? nack_dropped_ : nack_throttled_)->Increment();
    }
  }

  if (nacks.empty()) return std::string();
  std::sort(nacks.begin(), nacks.end(),
            [](const wire::NackEntry& a, const wire::NackEntry& b) {
              return a.index < b.index;
            });
  std::string bytes;
  for (std::size_t offset = 0; offset < nacks.size();
       offset += kNacksPerFrame) {
    std::size_t count = std::min(kNacksPerFrame, nacks.size() - offset);
    wire::NackFrame frame;
    frame.batch_id = batch.batch_id;
    auto first = nacks.begin() + static_cast<std::ptrdiff_t>(offset);
    frame.entries.assign(std::make_move_iterator(first),
                         std::make_move_iterator(
                             first + static_cast<std::ptrdiff_t>(count)));
    wire::AppendNack(&bytes, frame);
  }
  return bytes;
}

std::string IngressService::OnDrain(ConnectionId conn) {
  std::vector<wire::ScoreEntry> scores;
  {
    std::lock_guard<std::mutex> lock(router_->mutex);
    auto it = router_->pending.find(conn);
    if (it == router_->pending.end() || it->second.empty()) {
      return std::string();
    }
    scores.swap(it->second);
  }
  std::string bytes;
  for (std::size_t offset = 0; offset < scores.size();
       offset += kScoresPerFrame) {
    std::size_t count = std::min(kScoresPerFrame, scores.size() - offset);
    wire::ScoreBatchFrame frame;
    frame.entries.assign(scores.begin() + static_cast<std::ptrdiff_t>(offset),
                         scores.begin() +
                             static_cast<std::ptrdiff_t>(offset + count));
    wire::AppendScoreBatch(&bytes, frame);
  }
  return bytes;
}

void IngressService::OnDisconnect(ConnectionId conn) {
  std::lock_guard<std::mutex> lock(router_->mutex);
  router_->pending.erase(conn);
  for (auto it = router_->routes.begin(); it != router_->routes.end();) {
    if (it->second == conn) {
      it = router_->routes.erase(it);
    } else {
      ++it;
    }
  }
}

wire::HealthFrame IngressService::OnHealth() const {
  FleetStats stats = fleet_->Stats();
  wire::HealthFrame health;
  health.healthy = fleet_->healthy() ? 1 : 0;
  health.sessions = stats.sessions;
  health.resident = stats.resident_sessions;
  health.processed = stats.processed;
  health.throttled = stats.throttled;
  health.dropped = stats.dropped;
  return health;
}

void IngressService::RouteResult(const std::shared_ptr<Router>& router,
                                 const std::string& stream_id,
                                 const SessionStepResult& result) {
  wire::ScoreEntry entry;
  entry.stream_id = stream_id;
  entry.t = result.t;
  entry.flags = (result.step.scored ? wire::kScoreFlagScored : 0) |
                (result.step.finetuned ? wire::kScoreFlagFinetuned : 0);
  entry.nonconformity = result.step.nonconformity;
  entry.anomaly_score = result.step.anomaly_score;

  std::lock_guard<std::mutex> lock(router->mutex);
  if (router->server == nullptr) return;  // service stopped or destroyed
  auto it = router->routes.find(stream_id);
  if (it == router->routes.end()) return;  // locally submitted; no route
  std::vector<wire::ScoreEntry>& queue = router->pending[it->second];
  if (queue.size() >= router->max_pending_scores) {
    // The connection is not draining (peer stopped reading); shed rather
    // than grow without bound — the server's outbuf cap will disconnect
    // the peer shortly.
    router->results_shed->Increment();
    return;
  }
  queue.push_back(std::move(entry));
  // FlagPending under the lock on purpose: Stop() clears `server` under
  // the same lock, so server teardown cannot race this call. The wake
  // pipe coalesces (a full pipe already guarantees a pending wake-up),
  // so this is one cheap write per score at worst.
  router->server->FlagPending(it->second);
}

}  // namespace streamad::serve
