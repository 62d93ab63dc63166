#ifndef STREAMAD_NET_INGRESS_SERVER_H_
#define STREAMAD_NET_INGRESS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/status.h"
#include "src/net/wire.h"

namespace streamad::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace streamad::obs

namespace streamad::net {

/// The fleet's data-plane front door: a poll-based event-loop TCP listener
/// speaking the `wire` frame protocol. One thread multiplexes every
/// connection (non-blocking accept + per-connection read/write buffers),
/// so a slow or hostile client can stall only its own connection, never
/// the loop — and a peer that submits events without ever reading its
/// replies is disconnected once its write buffer crosses
/// `Options::max_outbuf_bytes`, so it cannot exhaust server memory
/// either.
///
/// Like `HttpServer`, this class knows nothing about the fleet: the
/// application (src/serve/ingress_service.h) plugs in through `Hooks`.
/// The server handles the protocol itself — HELLO/HELLO_ACK negotiation,
/// malformed-frame NACKs, connection lifecycle — and delegates only the
/// application frames:
///
///  - an EVENT_BATCH is handed to `on_event_batch`, whose returned bytes
///    (typically a NACK frame for rejected events, already encoded) are
///    queued on that connection;
///  - score results are produced asynchronously by fleet shard workers;
///    they call `FlagPending(connection)` (thread-safe) and the loop then
///    asks `on_drain` for the encoded frames to flush;
///  - HEALTH_PROBE frames are answered from `on_health`.
class IngressServer {
 public:
  using ConnectionId = std::uint64_t;

  struct Hooks {
    /// Handles one decoded EVENT_BATCH; returns already-encoded frames to
    /// queue on the connection (empty = nothing to send synchronously).
    std::function<std::string(ConnectionId, const wire::EventBatchFrame&)>
        on_event_batch;
    /// Point-in-time health summary for HEALTH_PROBE replies.
    std::function<wire::HealthFrame()> on_health;
    /// Returns encoded frames queued for `id` since the last drain (the
    /// loop calls this after `FlagPending(id)`).
    std::function<std::string(ConnectionId)> on_drain;
    /// The connection is gone (peer closed, error, or server stop); any
    /// routing state for it should be dropped.
    std::function<void(ConnectionId)> on_disconnect;
  };

  struct Options {
    /// Advertised in HELLO_ACK.
    std::string server_name = "streamad-ingress";
    /// Server feature bits; the ack carries client AND server.
    std::uint64_t features = 0;
    /// Per-connection cap on unflushed output bytes. Crossing it means
    /// the peer is not reading its replies; the connection is closed
    /// (counted as `streamad_ingress_overflow_disconnects_total`) rather
    /// than letting its buffer grow without bound. Must comfortably
    /// exceed one maximum frame so any single legal reply fits.
    std::size_t max_outbuf_bytes = 64u << 20;
    /// Registry for the ingress instrument family (counters for
    /// connections/frames/bytes/NACKs/decode errors, frame-size
    /// histograms). Not owned; when null the server owns one.
    obs::MetricsRegistry* metrics = nullptr;
  };

  IngressServer();
  explicit IngressServer(Options options);
  ~IngressServer();

  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  /// Must be called before `Start`.
  void set_hooks(Hooks hooks);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the event loop.
  core::Status Start(std::uint16_t port);

  /// Closes the listener and every connection, then joins the loop.
  /// Idempotent.
  void Stop();

  /// Port actually bound (valid after a successful `Start`).
  std::uint16_t port() const { return port_; }

  /// Thread-safe: marks `id` as having application frames ready (the
  /// loop will call `on_drain(id)`) and wakes the loop. Unknown or
  /// already-closed ids are ignored — results for a vanished connection
  /// are simply discarded.
  void FlagPending(ConnectionId id);

  /// Live connection count / lifetime accept count (registry reads).
  std::size_t active_connections() const;
  std::uint64_t connections_total() const;

  /// The registry the server counts into (`Options::metrics` or its own).
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Connection {
    ConnectionId id = 0;
    int fd = -1;
    wire::FrameAssembler assembler;
    std::string outbuf;
    std::size_t out_sent = 0;  // prefix of outbuf already written
    bool hello_done = false;
    /// Flush the outbuf, then close (protocol errors end the stream but
    /// the diagnostic NACK should still arrive).
    bool close_after_flush = false;
    /// Unflushed outbuf crossed Options::max_outbuf_bytes; the loop
    /// closes the connection at the next safe point (there is no use
    /// flushing first — the peer is not reading).
    bool overflowed = false;
  };

  void Loop();
  void AcceptNew();
  /// Reads everything available; decodes and handles complete frames.
  void HandleReadable(Connection* conn);
  /// Writes as much of outbuf as the socket accepts.
  void HandleWritable(Connection* conn);
  void HandleFrame(Connection* conn, const wire::Frame& frame);
  /// Queues a protocol-level NACK and condemns the connection.
  void FailConnection(Connection* conn, wire::NackCode code,
                      const std::string& detail);
  void QueueBytes(Connection* conn, const std::string& bytes);
  /// Closes (and counts) a connection whose outbuf overflowed. Returns
  /// true when `conn` was closed and must not be touched again.
  bool CloseIfOverflowed(Connection* conn);
  void CloseConnection(Connection* conn);
  void DrainPendingFlags();
  void WakeLoop();

  Options options_;
  Hooks hooks_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::thread loop_;
  std::atomic<bool> stop_requested_{false};

  /// Loop-thread state: fd -> connection, plus the reverse index `on_drain`
  /// flag delivery needs. Only `Loop` touches either.
  std::unordered_map<int, Connection> connections_;
  std::unordered_map<ConnectionId, int> id_to_fd_;
  ConnectionId next_id_ = 1;

  /// Cross-thread pending-drain flags (shard workers -> loop).
  std::mutex pending_mutex_;
  std::unordered_set<ConnectionId> pending_;  // guarded by pending_mutex_

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* connections_counter_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Counter* frames_in_counter_ = nullptr;
  obs::Counter* frames_out_counter_ = nullptr;
  obs::Counter* bytes_in_counter_ = nullptr;
  obs::Counter* bytes_out_counter_ = nullptr;
  obs::Counter* decode_errors_counter_ = nullptr;
  obs::Counter* nacks_counter_ = nullptr;
  obs::Counter* overflow_disconnects_counter_ = nullptr;
  obs::Histogram* frame_in_bytes_ = nullptr;
  obs::Histogram* frame_out_bytes_ = nullptr;
};

}  // namespace streamad::net

#endif  // STREAMAD_NET_INGRESS_SERVER_H_
