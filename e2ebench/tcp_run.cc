#include "tcp_run.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <string>
#include <variant>

#include "alloc_count.h"

namespace e2ebench {

namespace wire = streamad::net::wire;
namespace serve = streamad::serve;

namespace {

/// Per-session ring of unanswered events. A session with more events in
/// flight than this is a fleet that has fallen hopelessly behind; the run
/// then fails rather than mis-time events.
constexpr std::uint64_t kRing = 256;
/// Recent EVENT_BATCH compositions kept to resolve NACK entries.
constexpr std::uint64_t kBatchLog = 4096;
constexpr double kDrainTimeoutS = 30.0;
/// Share of the open-loop phase run before latencies are recorded.
constexpr double kOpenLeadIn = 0.1;

/// The connected socket whose peer is 127.0.0.1:`port`. `IngressClient`
/// does not expose its descriptor; the generator needs it only to wait for
/// readability with a nanosecond timeout (`ppoll`), which `ReadFrame`'s
/// millisecond budget cannot express. All reads still go through
/// `ReadFrame`.
int FindClientSocket(std::uint16_t port) {
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_in peer{};
    socklen_t length = sizeof(peer);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &length) != 0) {
      continue;
    }
    sockaddr_in local{};
    length = sizeof(local);
    if (peer.sin_family == AF_INET && ntohs(peer.sin_port) == port &&
        getsockname(fd, reinterpret_cast<sockaddr*>(&local), &length) == 0 &&
        ntohs(local.sin_port) != port) {
      return fd;
    }
  }
  return -1;
}

void MaxInto(double* into, double value) { *into = std::max(*into, value); }

}  // namespace

TcpBench::TcpBench(const Inputs& inputs)
    : inputs_(inputs),
      workload_(inputs.workload()),
      fleet_(FleetOptionsFor(workload_, &registry_, &store_)),
      service_(&fleet_, [this] {
        serve::IngressService::Options options;
        options.metrics = &registry_;
        return options;
      }()) {
  // Timed waits of the open loop should end on time, not up to 50us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const std::size_t n = inputs.sessions();
  const std::int64_t first_scored = FirstScoredT(workload_);
  tracks_.assign(n, Track{});
  for (Track& track : tracks_) {
    track.head = static_cast<std::uint64_t>(first_scored);
    track.next_t = first_scored;
  }
  ring_.assign(n * kRing, Pending{});
  sent_log_.assign(kBatchLog * workload_.batch_size, Sent{});
  for (const std::size_t session : inputs.checked()) {
    checked_[session].received.reserve(1u << 16);
  }
  batch_.events.resize(workload_.batch_size);
  for (wire::WireEvent& event : batch_.events) {
    event.values.reserve(kChannels);
  }

  for (std::size_t s = 0; s < n; ++s) {
    const streamad::core::Status status =
        service_.CreateSession(inputs.Id(s), inputs.SessionConfig(s));
    if (!status.ok()) {
      Error("CreateSession: " + status.ToString());
      return;
    }
  }
  if (const streamad::core::Status status = service_.Start(0);
      !status.ok()) {
    Error("ingress Start: " + status.ToString());
    return;
  }
  if (const streamad::core::Status status = client_.Connect(service_.port());
      !status.ok()) {
    Error("Connect: " + status.ToString());
    return;
  }
  client_fd_ = FindClientSocket(service_.port());
  if (client_fd_ < 0) {
    Error("cannot find the client socket");
    return;
  }

  // Warm-up: session-major, so each session goes through its window fill
  // and initial fit in one run of batches (and, under an LRU cap, is
  // evicted at most once meanwhile).
  // Most warm-up events are never answered (no score before the fit), so
  // flow control reads the fleet's processed count instead of the replies.
  std::vector<std::size_t> keys(workload_.batch_size);
  std::size_t filled = 0;
  std::uint64_t warm_sent = 0;
  auto send_warm = [&] {
    while (!broken_ && warm_sent + filled - fleet_.Stats().processed >
                           workload_.closed_window) {
      Pump(1, nullptr);
    }
    SendBatch(keys.data(), filled, NowNs(), nullptr);
    warm_sent += filled;
    filled = 0;
  };
  for (std::size_t s = 0; s < n && !broken_; ++s) {
    for (std::uint64_t e = 0; e < WarmEvents(s) && !broken_; ++e) {
      keys[filled++] = s;
      if (filled == keys.size()) send_warm();
    }
  }
  if (filled > 0 && !broken_) send_warm();
  Drain(kDrainTimeoutS);
}

TcpBench::~TcpBench() { Stop(); }

void TcpBench::Error(const std::string& message) {
  if (errors_.size() < 16) errors_.push_back(message);
  broken_ = true;
}

void TcpBench::SendBatch(const std::size_t* keys, std::size_t count,
                         std::uint64_t due_ns, SpanLog* spans) {
  batch_.batch_id = ++batch_seq_;
  batch_.events.resize(count);
  const std::uint64_t log_row = (batch_seq_ % kBatchLog) * workload_.batch_size;
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t s = keys[j];
    Track& track = tracks_[s];
    const std::uint64_t k = track.sent++;
    if (k >= track.head) {
      // Past warm-up: this event must come back as a SCORE_BATCH entry.
      if (k - track.head >= kRing) {
        Error("session " + inputs_.Id(s) + " has more than " +
              std::to_string(kRing) + " events in flight");
        return;
      }
      ring_[s * kRing + k % kRing] =
          Pending{due_ns, static_cast<std::uint32_t>(batch_seq_), false};
      ++outstanding_;
    }
    sent_log_[log_row + j] =
        Sent{static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(k)};
    wire::WireEvent& event = batch_.events[j];
    event.stream_id.assign(inputs_.Id(s));
    const double* values = inputs_.Values(s, k);
    event.values.assign(values, values + kChannels);
  }
  if (timed_) attempted_ += count;
  streamad::core::Status status;
  {
    ScopedSpan span(spans, SpanName::kSendEventBatch, batch_seq_);
    status = client_.SendEventBatch(batch_);
  }
  if (!status.ok()) Error("SendEventBatch: " + status.ToString());
}

bool TcpBench::Pump(int timeout_ms, SpanLog* spans) {
  const std::uint64_t start_ns = spans != nullptr ? NowNs() : 0;
  const streamad::core::Status status = client_.ReadFrame(&frame_, timeout_ms);
  const std::uint64_t rx_ns = NowNs();
  if (status.code() == streamad::core::StatusCode::kNotFound) return false;
  if (!status.ok()) {
    Error("ReadFrame: " + status.ToString());
    return false;
  }
  std::uint64_t batch_id = 0;
  if (frame_.type == wire::FrameType::kScoreBatch) {
    const auto& scores = std::get<wire::ScoreBatchFrame>(frame_.payload);
    if (!scores.entries.empty()) {
      const std::size_t s = inputs_.ParseId(scores.entries.front().stream_id);
      if (s < inputs_.sessions()) {
        batch_id = ring_[s * kRing + tracks_[s].head % kRing].batch_id;
      }
    }
    OnScores(scores, rx_ns);
  } else if (frame_.type == wire::FrameType::kNack) {
    const auto& nack = std::get<wire::NackFrame>(frame_.payload);
    batch_id = nack.batch_id;
    OnNack(nack);
  }
  if (spans != nullptr) {
    spans->Record(SpanName::kReadFrame, batch_id, start_ns, rx_ns);
  }
  return true;
}

void TcpBench::OnScores(const wire::ScoreBatchFrame& frame,
                        std::uint64_t rx_ns) {
  for (const wire::ScoreEntry& entry : frame.entries) {
    const std::size_t s = inputs_.ParseId(entry.stream_id);
    if (s >= inputs_.sessions()) {
      Error("score for unknown stream '" + entry.stream_id + "'");
      continue;
    }
    Track& track = tracks_[s];
    while (track.head < track.sent && ring_[s * kRing + track.head % kRing].dropped) {
      ++track.head;
    }
    if (track.head >= track.sent) {
      Error("unexpected score for " + entry.stream_id + " t=" +
            std::to_string(entry.t) + " (no event outstanding)");
      continue;
    }
    if (entry.t != track.next_t) {
      Error("score for " + entry.stream_id + " carries t=" +
            std::to_string(entry.t) + ", expected t=" +
            std::to_string(track.next_t));
    }
    const Pending& pending = ring_[s * kRing + track.head % kRing];
    ++track.head;
    ++track.next_t;
    --outstanding_;
    if (record_latency_ && pending.due_ns >= latency_from_ns_) {
      latency_us_->push_back(
          static_cast<double>(rx_ns - pending.due_ns) * 1e-3);
    }
    if (timed_) {
      ++timed_entries_;
      if ((entry.flags & wire::kScoreFlagFinetuned) != 0) ++timed_finetunes_;
    }
    if (slice_counts_ != nullptr && rx_ns >= slice_start_ns_) {
      const std::uint64_t slice = (rx_ns - slice_start_ns_) / slice_ns_;
      if (slice < slice_counts_->size()) ++(*slice_counts_)[slice];
    }
    auto checked = checked_.find(s);
    if (checked != checked_.end()) {
      checked->second.received.push_back(ReceivedScore{
          entry.t, entry.flags, entry.nonconformity, entry.anomaly_score});
    }
  }
}

void TcpBench::OnNack(const wire::NackFrame& frame) {
  for (const wire::NackEntry& entry : frame.entries) {
    if (entry.code == wire::NackCode::kThrottled) {
      // Queued anyway: backpressure advice, not a lost event.
      if (timed_) ++nacked_throttled_;
      continue;
    }
    if (entry.code == wire::NackCode::kUnknownStream) {
      ++nacked_unknown_;
    } else if (entry.code == wire::NackCode::kDropped) {
      ++nacked_dropped_;
    } else {
      Error(std::string("NACK ") + wire::ToString(entry.code) + ": " +
            entry.detail);
      continue;
    }
    // NACKs of a batch precede its scores on the connection, so marking
    // the event now keeps the (stream_id, t) matching exact.
    if (batch_seq_ - frame.batch_id >= kBatchLog ||
        entry.index >= workload_.batch_size) {
      Error("NACK for a batch too old to resolve");
      continue;
    }
    const Sent& sent = sent_log_[(frame.batch_id % kBatchLog) *
                                     workload_.batch_size +
                                 entry.index];
    Track& track = tracks_[sent.session];
    if (sent.k >= track.head && sent.k < track.sent) {
      Pending& pending = ring_[sent.session * kRing + sent.k % kRing];
      if (!pending.dropped) {
        pending.dropped = true;
        --outstanding_;
      }
    }
    auto checked = checked_.find(sent.session);
    if (checked != checked_.end()) checked->second.dropped_ks.push_back(sent.k);
  }
}

void TcpBench::Drain(double timeout_s) {
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (!broken_ && outstanding_ > 0 && NowNs() < deadline) {
    Pump(100, nullptr);
  }
}

void TcpBench::WaitUntil(std::uint64_t due_ns) {
  while (!broken_) {
    // Pump returns false only once no complete frame is buffered, so the
    // socket's readability is the whole story for the wait below.
    while (!broken_ && Pump(0, nullptr)) {
    }
    const std::uint64_t now = NowNs();
    if (now >= due_ns) return;
    const std::uint64_t remaining = due_ns - now;
    pollfd pfd{client_fd_, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(remaining / 1000000000ull),
                           static_cast<long>(remaining % 1000000000ull)};
    ppoll(&pfd, 1, &timeout, nullptr);
  }
}

std::vector<double> TcpBench::RunClosed(double seconds, int slices,
                                        SpanLog* spans) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(slices), 0);
  const std::uint64_t start = NowNs();
  const std::uint64_t length = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t end = start + length;
  slice_start_ns_ = start;
  slice_ns_ = length / static_cast<std::uint64_t>(slices);
  slice_counts_ = &counts;
  timed_ = true;

  std::vector<std::size_t> keys(workload_.batch_size);
  while (!broken_) {
    const std::uint64_t now = NowNs();
    if (now >= end) break;
    std::size_t filled = 0;
    if (outstanding_ + keys.size() <= workload_.closed_window) {
      auto has_room = [&](std::size_t s) {
        const Track& track = tracks_[s];
        std::size_t in_flight = track.sent - track.head;
        for (std::size_t j = 0; j < filled; ++j) in_flight += keys[j] == s;
        return in_flight < workload_.closed_session_cap;
      };
      while (filled < keys.size() &&
             inputs_.NextClosedKey(&key_cursor_, has_room, &keys[filled])) {
        ++filled;
      }
    }
    if (filled > 0) {
      SendBatch(keys.data(), filled, now, spans);
    } else {
      Pump(static_cast<int>(std::max<std::uint64_t>(1, (end - now) / 1000000ull)),
           spans);
    }
  }
  timed_ = false;
  slice_counts_ = nullptr;
  Drain(kDrainTimeoutS);

  std::vector<double> eps;
  for (const std::uint64_t count : counts) {
    eps.push_back(static_cast<double>(count) /
                  (static_cast<double>(slice_ns_) * 1e-9));
  }
  return eps;
}

OpenLoopResult TcpBench::RunOpen(double seconds, bool count_allocs) {
  OpenLoopResult result;
  const double period_ns = static_cast<double>(workload_.batch_size) /
                           workload_.open_rate_eps * 1e9;
  const std::uint64_t length = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t batches =
      static_cast<std::size_t>(static_cast<double>(length) / period_ns);
  // The first `kOpenLeadIn` of the phase runs at the same rate but is not
  // measured: the switch from the closed loop's deep queues to a steady
  // trickle settles first.
  const std::size_t lead_in_batches =
      static_cast<std::size_t>(kOpenLeadIn * static_cast<double>(batches));
  result.latency_us.reserve((batches - lead_in_batches) *
                                workload_.batch_size + 16);
  result.lag_us.reserve(batches + 1);
  std::vector<std::size_t> keys(workload_.batch_size);

  auto counter = [&](const char* name) {
    return registry_.GetCounter(name)->Value();
  };
  std::uint64_t bytes_in0 = 0, bytes_out0 = 0, frames_out0 = 0, allocs0 = 0;
  double cpu0 = 0.0;
  serve::FleetStats stats0;
  std::vector<std::uint64_t> shards0;
  auto begin_measuring = [&] {
    bytes_in0 = counter("streamad_ingress_bytes_in_total");
    bytes_out0 = counter("streamad_ingress_bytes_out_total");
    frames_out0 = counter("streamad_ingress_frames_out_total");
    for (std::size_t i = 0; i < kShards; ++i) {
      const std::string prefix =
          "streamad_serve_shard" + std::to_string(i) + "_";
      registry_.GetSketch(prefix + "queue_wait_ns_summary")->Reset();
      registry_.GetSketch(prefix + "step_ns_summary")->Reset();
    }
    stats0 = fleet_.Stats();
    shards0 = ShardProcessed();
    cpu0 = ProcessCpuSeconds();
    if (count_allocs) EnableAllocCounting(true);
    allocs0 = AllocCount();
  };

  const std::uint64_t start = NowNs() + 1000000;  // first send due in 1 ms
  latency_from_ns_ = start + static_cast<std::uint64_t>(
                                 static_cast<double>(lead_in_batches) *
                                 period_ns);
  latency_us_ = &result.latency_us;
  record_latency_ = true;
  for (std::size_t j = 0; j < batches && !broken_; ++j) {
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(static_cast<double>(j) * period_ns);
    WaitUntil(due);
    const std::uint64_t now = NowNs();
    if (j == lead_in_batches) {
      begin_measuring();
      timed_ = true;
    }
    if (timed_) {
      result.lag_us.push_back(static_cast<double>(now - due) * 1e-3);
      result.events += keys.size();
    }
    for (std::size_t& key : keys) key = inputs_.KeyAt(key_cursor_++);
    SendBatch(keys.data(), keys.size(), due, nullptr);
  }
  Drain(kDrainTimeoutS);

  result.allocs = AllocCount() - allocs0;
  if (count_allocs) EnableAllocCounting(false);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  timed_ = false;
  record_latency_ = false;
  latency_us_ = nullptr;

  result.bytes_in = counter("streamad_ingress_bytes_in_total") - bytes_in0;
  result.bytes_out = counter("streamad_ingress_bytes_out_total") - bytes_out0;
  result.frames_out =
      counter("streamad_ingress_frames_out_total") - frames_out0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string prefix = "streamad_serve_shard" + std::to_string(i) + "_";
    const auto wait = registry_.GetSketch(prefix + "queue_wait_ns_summary")->Snap();
    const auto step = registry_.GetSketch(prefix + "step_ns_summary")->Snap();
    MaxInto(&result.queue_wait_p50_ns, wait.p50());
    MaxInto(&result.queue_wait_p99_ns, wait.p99());
    MaxInto(&result.shard_step_p50_ns, step.p50());
    MaxInto(&result.shard_step_p99_ns, step.p99());
  }
  const serve::FleetStats stats1 = fleet_.Stats();
  result.processed = stats1.processed - stats0.processed;
  result.evictions = stats1.evictions - stats0.evictions;
  result.rehydrations = stats1.rehydrations - stats0.rehydrations;
  const std::vector<std::uint64_t> shards1 = ShardProcessed();
  for (std::size_t i = 0; i < shards1.size() && i < shards0.size(); ++i) {
    result.shard_processed.push_back(shards1[i] - shards0[i]);
  }
  return result;
}

std::vector<std::uint64_t> TcpBench::ShardProcessed() const {
  std::vector<std::uint64_t> processed;
  for (const serve::ShardSnapshot& shard : fleet_.SnapshotShards()) {
    processed.push_back(shard.processed);
  }
  return processed;
}

void TcpBench::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!broken_) Drain(kDrainTimeoutS);
  never_scored_ = outstanding_;
  client_.Close();
  service_.Stop();
  fleet_.Stop();
}

}  // namespace e2ebench
