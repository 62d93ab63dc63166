#ifndef STREAMAD_SERVE_INGRESS_SERVICE_H_
#define STREAMAD_SERVE_INGRESS_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/status.h"
#include "src/net/ingress_server.h"
#include "src/net/wire.h"
#include "src/serve/fleet.h"

namespace streamad::obs {
class Counter;
class MetricsRegistry;
}  // namespace streamad::obs

namespace streamad::serve {

namespace wire = net::wire;

/// Binds a `DetectorFleet` to a `net::IngressServer`: the application side
/// of the wire protocol. The service owns the server, implements its hooks,
/// and maps the fleet's admission contract onto protocol frames:
///
///   Admission::kQueued    -> a SCORE_BATCH entry once the shard scores it
///   Admission::kThrottled -> queued AND a NACK entry (advisory: slow down)
///   Admission::kDropped   -> a NACK entry; the event was lost
///   unknown stream id     -> a NACK entry (kUnknownStream); never submitted
///   empty or wrong width  -> a NACK entry (kMalformed); never submitted
///
/// Scores flow back asynchronously: each session created through
/// `CreateSession` gets an `on_result` callback that buffers a
/// `wire::ScoreEntry` for the connection that most recently submitted to
/// that stream, then flags the server loop to drain it.
class IngressService {
 public:
  struct Options {
    std::string server_name = "streamad-ingress";
    std::uint64_t features = 0;
    /// Registry for the server's transport metrics and the service's
    /// per-code NACK and shed counters. Not owned; one registry serves one
    /// service. When null the server's own registry holds them.
    obs::MetricsRegistry* metrics = nullptr;
    /// Per-connection cap on scores buffered while waiting for the server
    /// loop to drain them. A connection whose peer stops reading backs up
    /// all the way to here; past the cap further scores for it are shed
    /// (counted as `streamad_ingress_results_shed_total`) instead of
    /// growing memory without bound. The server's own
    /// `max_outbuf_bytes` cap disconnects such peers shortly after.
    std::size_t max_pending_scores = 1u << 18;
  };

  /// `fleet` must outlive the service. The reverse is not required: the
  /// per-session result callbacks installed by `CreateSession` share
  /// ownership of the routing state, so scores a shard worker delivers
  /// after the service stopped (or was destroyed) are discarded safely.
  explicit IngressService(DetectorFleet* fleet);
  IngressService(DetectorFleet* fleet, Options options);
  ~IngressService();

  IngressService(const IngressService&) = delete;
  IngressService& operator=(const IngressService&) = delete;

  /// Creates a fleet session whose scores are routed back over ingress.
  /// Call for every stream the server should accept; events for other ids
  /// are NACKed with `kUnknownStream`. The stream's first staged event
  /// pins its width; empty events and other widths are NACKed with
  /// `kMalformed`.
  core::Status CreateSession(const std::string& stream_id,
                             SessionConfig config);

  core::Status Start(std::uint16_t port);
  void Stop();

  std::uint16_t port() const { return server_.port(); }
  const net::IngressServer& server() const { return server_; }

 private:
  using ConnectionId = net::IngressServer::ConnectionId;

  /// Routing state shared between the server loop thread (batch / drain /
  /// disconnect hooks) and the fleet's shard workers (session `on_result`
  /// callbacks). It is shared_ptr-owned — NOT a plain member — because the
  /// callbacks live inside fleet sessions and cannot be unregistered:
  /// capturing `this` would dangle once the service is destroyed while
  /// shard workers still drain queued events. Each callback instead keeps
  /// the Router alive and checks `server`, which `Stop()` clears under
  /// `mutex`, so late results are dropped rather than dereferencing a dead
  /// service. `server_.FlagPending` is only ever called while holding
  /// `mutex`, which makes the clear-then-teardown sequence race-free.
  /// The same rule covers `results_shed`: it may live in the server's own
  /// registry, so it is only touched while `server` is set.
  struct Router {
    std::mutex mutex;
    net::IngressServer* server = nullptr;                 // guarded by mutex
    std::size_t max_pending_scores = 0;
    /// Known stream -> its pinned event width (0 until the first event).
    std::unordered_map<std::string, std::size_t> widths;  // guarded by mutex
    std::unordered_map<std::string, ConnectionId> routes; // guarded by mutex
    std::unordered_map<ConnectionId, std::vector<wire::ScoreEntry>>
        pending;                                          // guarded by mutex
    obs::Counter* results_shed = nullptr;
  };

  std::string OnEventBatch(ConnectionId conn,
                           const wire::EventBatchFrame& batch);
  std::string OnDrain(ConnectionId conn);
  void OnDisconnect(ConnectionId conn);
  wire::HealthFrame OnHealth() const;
  /// The session `on_result` body; static so it cannot touch service
  /// members the Router does not own.
  static void RouteResult(const std::shared_ptr<Router>& router,
                          const std::string& stream_id,
                          const SessionStepResult& result);

  DetectorFleet* fleet_;
  Options options_;
  net::IngressServer server_;
  std::shared_ptr<Router> router_;

  obs::Counter* nack_throttled_ = nullptr;
  obs::Counter* nack_dropped_ = nullptr;
  obs::Counter* nack_unknown_stream_ = nullptr;
};

}  // namespace streamad::serve

#endif  // STREAMAD_SERVE_INGRESS_SERVICE_H_
