#include "src/net/ingress_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/net/socket_util.h"
#include "src/obs/metrics.h"

namespace streamad::net {

namespace {

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Frame-size buckets: the protocol spans single-event batches (~tens of
/// bytes) to the 16 MiB payload cap, so the bounds are geometric.
std::vector<double> FrameSizeBounds() {
  return {64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0};
}

}  // namespace

IngressServer::IngressServer() : IngressServer(Options()) {}

IngressServer::IngressServer(Options options)
    : options_(std::move(options)), metrics_(options_.metrics) {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  connections_counter_ =
      metrics_->GetCounter("streamad_ingress_connections_total");
  active_gauge_ = metrics_->GetGauge("streamad_ingress_connections_active");
  frames_in_counter_ = metrics_->GetCounter("streamad_ingress_frames_in_total");
  frames_out_counter_ =
      metrics_->GetCounter("streamad_ingress_frames_out_total");
  bytes_in_counter_ = metrics_->GetCounter("streamad_ingress_bytes_in_total");
  bytes_out_counter_ = metrics_->GetCounter("streamad_ingress_bytes_out_total");
  decode_errors_counter_ =
      metrics_->GetCounter("streamad_ingress_decode_errors_total");
  nacks_counter_ = metrics_->GetCounter("streamad_ingress_protocol_nacks_total");
  overflow_disconnects_counter_ =
      metrics_->GetCounter("streamad_ingress_overflow_disconnects_total");
  frame_in_bytes_ = metrics_->GetHistogram("streamad_ingress_frame_in_bytes",
                                           FrameSizeBounds());
  frame_out_bytes_ = metrics_->GetHistogram(
      "streamad_ingress_frame_out_bytes", FrameSizeBounds());
}

IngressServer::~IngressServer() { Stop(); }

void IngressServer::set_hooks(Hooks hooks) {
  STREAMAD_CHECK_MSG(!started_, "set_hooks must precede Start");
  hooks_ = std::move(hooks);
}

std::size_t IngressServer::active_connections() const {
  return static_cast<std::size_t>(active_gauge_->Value());
}

std::uint64_t IngressServer::connections_total() const {
  return connections_counter_->Value();
}

core::Status IngressServer::Start(std::uint16_t port) {
  if (started_) return core::Status::FailedPrecondition("already started");

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    return core::Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  if (!SetNonBlocking(pipe_fds[0]) || !SetNonBlocking(pipe_fds[1])) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return core::Status::IoError("could not make wake pipe non-blocking");
  }

  ListenerSocket listener;
  if (core::Status status = BindLoopbackListener(port, /*backlog=*/64,
                                                 &listener);
      !status.ok()) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return status;
  }
  if (!SetNonBlocking(listener.fd)) {
    ::close(listener.fd);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return core::Status::IoError("could not make listener non-blocking");
  }

  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  listen_fd_ = listener.fd;
  port_ = listener.port;
  stop_requested_.store(false, std::memory_order_release);
  started_ = true;
  loop_ = std::thread([this] { Loop(); });
  return core::Status::Ok();
}

void IngressServer::Stop() {
  if (!started_) return;
  stop_requested_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  started_ = false;
}

void IngressServer::FlagPending(ConnectionId id) {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.insert(id);
  }
  WakeLoop();
}

void IngressServer::WakeLoop() {
  // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void IngressServer::Loop() {
  std::vector<pollfd> fds;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (conn.out_sent < conn.outbuf.size()) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }

    int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                       /*timeout=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;

    if ((fds[1].revents & POLLIN) != 0) {
      char scratch[256];
      while (::read(wake_read_fd_, scratch, sizeof(scratch)) > 0) {
      }
    }
    DrainPendingFlags();

    if ((fds[0].revents & POLLIN) != 0) AcceptNew();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      int fd = fds[i].fd;
      // POLLERR / POLLHUP surface through recv (0 or error) in
      // HandleReadable, so error bits are folded into the read path.
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        auto it = connections_.find(fd);
        if (it != connections_.end()) HandleReadable(&it->second);
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        auto it = connections_.find(fd);  // re-find: read may have closed it
        if (it != connections_.end()) HandleWritable(&it->second);
      }
    }
  }

  // Loop exit: tear down every live connection on the loop thread, which
  // owns the map.
  std::vector<int> open_fds;
  open_fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open_fds.push_back(fd);
  for (int fd : open_fds) {
    auto it = connections_.find(fd);
    if (it != connections_.end()) CloseConnection(&it->second);
  }
}

void IngressServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN ends the accept burst; transient errors (ECONNABORTED)
      // just drop that one connection attempt.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.id = next_id_++;
    conn.fd = fd;
    id_to_fd_[conn.id] = fd;
    connections_.emplace(fd, std::move(conn));
    connections_counter_->Increment();
    active_gauge_->Set(static_cast<double>(connections_.size()));
  }
}

void IngressServer::HandleReadable(Connection* conn) {
  char buffer[65536];
  while (true) {
    ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_in_counter_->Add(static_cast<std::uint64_t>(n));
      conn->assembler.Append(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer closed (n == 0) or hard error: the connection is finished.
    CloseConnection(conn);
    return;
  }

  wire::Frame frame;
  while (!conn->close_after_flush && !conn->overflowed) {
    std::size_t before = conn->assembler.pending_bytes();
    wire::FrameAssembler::Result result = conn->assembler.Next(&frame);
    if (result == wire::FrameAssembler::Result::kNeedMore) break;
    if (result == wire::FrameAssembler::Result::kError) {
      decode_errors_counter_->Increment();
      wire::WireError error = conn->assembler.error();
      wire::NackCode code = error == wire::WireError::kBadVersion
                                ? wire::NackCode::kUnsupportedVersion
                                : wire::NackCode::kMalformed;
      FailConnection(conn, code, wire::ToString(error));
      break;
    }
    frames_in_counter_->Increment();
    frame_in_bytes_->Observe(
        static_cast<double>(before - conn->assembler.pending_bytes()));
    HandleFrame(conn, frame);
  }

  if (CloseIfOverflowed(conn)) return;

  // Optimistic flush: most replies fit the socket buffer, so answering in
  // the same poll round spares the extra wake-up.
  if (conn->out_sent < conn->outbuf.size()) HandleWritable(conn);
}

void IngressServer::HandleFrame(Connection* conn, const wire::Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kHello: {
      if (conn->hello_done) {
        FailConnection(conn, wire::NackCode::kProtocolViolation,
                       "duplicate HELLO");
        return;
      }
      const auto& hello = std::get<wire::HelloFrame>(frame.payload);
      if (hello.proto_version != wire::kWireVersion) {
        FailConnection(conn, wire::NackCode::kUnsupportedVersion,
                       "server speaks wire version " +
                           std::to_string(wire::kWireVersion));
        return;
      }
      conn->hello_done = true;
      wire::HelloAckFrame ack;
      ack.proto_version = wire::kWireVersion;
      ack.features = hello.features & options_.features;
      ack.server = options_.server_name;
      std::string bytes;
      wire::AppendHelloAck(&bytes, ack);
      QueueBytes(conn, bytes);
      return;
    }
    case wire::FrameType::kEventBatch: {
      if (!conn->hello_done) {
        FailConnection(conn, wire::NackCode::kProtocolViolation,
                       "EVENT_BATCH before HELLO");
        return;
      }
      if (hooks_.on_event_batch) {
        QueueBytes(conn, hooks_.on_event_batch(
                             conn->id,
                             std::get<wire::EventBatchFrame>(frame.payload)));
      }
      return;
    }
    case wire::FrameType::kHealthProbe: {
      wire::HealthFrame health;
      if (hooks_.on_health) health = hooks_.on_health();
      std::string bytes;
      wire::AppendHealth(&bytes, health);
      QueueBytes(conn, bytes);
      return;
    }
    case wire::FrameType::kHelloAck:
    case wire::FrameType::kScoreBatch:
    case wire::FrameType::kNack:
    case wire::FrameType::kHealth:
      // Server-to-client frames arriving at the server are a protocol
      // violation, not a decode error.
      FailConnection(conn, wire::NackCode::kProtocolViolation,
                     std::string("unexpected ") + wire::ToString(frame.type));
      return;
  }
}

void IngressServer::FailConnection(Connection* conn, wire::NackCode code,
                                   const std::string& detail) {
  nacks_counter_->Increment();
  wire::NackFrame nack;
  nack.entries.push_back(wire::NackEntry{0, code, detail});
  std::string bytes;
  wire::AppendNack(&bytes, nack);
  QueueBytes(conn, bytes);
  conn->close_after_flush = true;
}

void IngressServer::QueueBytes(Connection* conn, const std::string& bytes) {
  if (bytes.empty()) return;
  // The bytes are frames we (or the application hook) encoded, so the
  // headers can be trusted for per-frame accounting.
  std::size_t offset = 0;
  while (offset + wire::kFrameHeaderBytes <= bytes.size()) {
    std::uint32_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + offset + 6, sizeof(payload_len));
    std::size_t frame_size = wire::kFrameHeaderBytes + payload_len;
    frames_out_counter_->Increment();
    frame_out_bytes_->Observe(static_cast<double>(frame_size));
    offset += frame_size;
  }
  conn->outbuf.append(bytes);
  if (conn->outbuf.size() - conn->out_sent > options_.max_outbuf_bytes) {
    conn->overflowed = true;
  }
}

bool IngressServer::CloseIfOverflowed(Connection* conn) {
  if (!conn->overflowed) return false;
  overflow_disconnects_counter_->Increment();
  CloseConnection(conn);
  return true;
}

void IngressServer::HandleWritable(Connection* conn) {
  while (conn->out_sent < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_sent,
                       conn->outbuf.size() - conn->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_sent += static_cast<std::size_t>(n);
      bytes_out_counter_->Add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  // Fully flushed: reclaim the buffer rather than growing forever.
  conn->outbuf.clear();
  conn->out_sent = 0;
  if (conn->close_after_flush) CloseConnection(conn);
}

void IngressServer::CloseConnection(Connection* conn) {
  ConnectionId id = conn->id;
  int fd = conn->fd;
  ::close(fd);
  id_to_fd_.erase(id);
  connections_.erase(fd);  // invalidates conn
  active_gauge_->Set(static_cast<double>(connections_.size()));
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.erase(id);
  }
  if (hooks_.on_disconnect) hooks_.on_disconnect(id);
}

void IngressServer::DrainPendingFlags() {
  std::unordered_set<ConnectionId> flagged;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    flagged.swap(pending_);
  }
  if (flagged.empty() || !hooks_.on_drain) return;
  for (ConnectionId id : flagged) {
    auto fd_it = id_to_fd_.find(id);
    if (fd_it == id_to_fd_.end()) continue;  // connection vanished
    auto conn_it = connections_.find(fd_it->second);
    if (conn_it == connections_.end()) continue;
    QueueBytes(&conn_it->second, hooks_.on_drain(id));
    CloseIfOverflowed(&conn_it->second);
  }
}

}  // namespace streamad::net

