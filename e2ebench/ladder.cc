#include "ladder.h"

#include <atomic>
#include <bit>
#include <memory>
#include <sstream>
#include <thread>
#include <variant>

#include "alloc_count.h"
#include "src/core/algorithm_spec.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/fleet.h"

namespace e2ebench {

namespace core = streamad::core;
namespace obs = streamad::obs;
namespace serve = streamad::serve;
namespace wire = streamad::net::wire;

namespace {

constexpr int kCheckpointReps = 5;
constexpr int kCodecReps = 5;
/// Events per codec repetition.
constexpr std::size_t kCodecEvents = 1u << 16;

std::unique_ptr<core::StreamingDetector> Build(const Inputs& inputs,
                                               std::size_t session) {
  const serve::SessionConfig config = inputs.SessionConfig(session);
  return core::BuildDetector(config.spec, config.score, config.detector,
                             config.seed);
}

/// Calls `step(values)` for each event the TCP run sent `session`, in
/// order, minus those the fleet dropped (known for checked sessions).
template <typename StepFn>
void ForEachEvent(const Inputs& inputs, const TcpBench& bench,
                  std::size_t session, bool checked, StepFn step) {
  static const std::vector<std::uint64_t> kNone;
  const std::vector<std::uint64_t>& dropped =
      checked ? bench.dropped_ks(session) : kNone;
  core::StreamVector values(kChannels);
  for (std::uint64_t k = 0; k < bench.sent(session); ++k) {
    if (std::find(dropped.begin(), dropped.end(), k) != dropped.end()) continue;
    const double* v = inputs.Values(session, k);
    values.assign(v, v + kChannels);
    step(values);
  }
}

bool IsChecked(const Inputs& inputs, std::size_t session) {
  const auto& checked = inputs.checked();
  return std::find(checked.begin(), checked.end(), session) != checked.end();
}

std::string Describe(const Inputs& inputs, std::size_t session, std::int64_t t,
                     const char* what) {
  return inputs.Id(session) + " t=" + std::to_string(t) + ": " + what;
}

}  // namespace

ReplayResult Replay(const Inputs& inputs, const TcpBench& bench,
                    const std::vector<std::size_t>& sessions,
                    bool count_allocs, SpanLog* spans) {
  ReplayResult result;
  const std::int64_t steady_from = FirstScoredT(inputs.workload()) + 1;
  serve::MemoryCheckpointStore store;
  for (const std::size_t session : sessions) {
    const bool checked = IsChecked(inputs, session);
    auto detector = Build(inputs, session);
    std::size_t next = 0;  // next received score to compare
    const std::vector<ReceivedScore>* received =
        checked ? &bench.received(session) : nullptr;
    ForEachEvent(inputs, bench, session, checked, [&](const auto& values) {
      const bool was_trained = detector->trained();
      if (count_allocs) EnableAllocCounting(true);
      const std::uint64_t allocs0 = AllocCount();
      const std::uint64_t start = NowNs();
      const core::StreamingDetector::StepResult step = detector->Step(values);
      const std::uint64_t end = NowNs();
      const std::uint64_t elapsed = end - start;
      const std::uint64_t allocs = AllocCount() - allocs0;
      if (spans != nullptr) spans->Record(SpanName::kStep, 0, start, end);
      if (count_allocs) EnableAllocCounting(false);
      const std::int64_t t = detector->t();
      if (!was_trained && detector->trained()) {
        result.fit_ms.push_back(static_cast<double>(elapsed) * 1e-6);
      } else if (was_trained) {
        ++result.scored_steps;
        result.scored_step_ns += static_cast<double>(elapsed);
        if (!step.finetuned && t >= steady_from) {
          result.step_ns.push_back(static_cast<double>(elapsed));
          result.step_allocs += allocs;
        }
      }
      if (received == nullptr || !step.scored) return;
      if (next >= received->size()) {
        result.mismatches.push_back(
            Describe(inputs, session, t, "scored in replay, never received"));
        return;
      }
      const ReceivedScore& got = (*received)[next++];
      const std::uint8_t flags =
          static_cast<std::uint8_t>(wire::kScoreFlagScored |
                                    (step.finetuned ? wire::kScoreFlagFinetuned
                                                    : 0));
      if (got.t != t || got.flags != flags ||
          std::bit_cast<std::uint64_t>(got.nonconformity) !=
              std::bit_cast<std::uint64_t>(step.nonconformity) ||
          std::bit_cast<std::uint64_t>(got.anomaly_score) !=
              std::bit_cast<std::uint64_t>(step.anomaly_score)) {
        if (result.mismatches.size() < 8) {
          result.mismatches.push_back(Describe(
              inputs, session, t, "score differs from the sequential replay"));
        }
      }
    });
    if (received != nullptr && next != received->size()) {
      result.mismatches.push_back(Describe(
          inputs, session, detector->t(), "more scores received than replayed"));
    }

    // Checkpoint round trips of the final state, as evict + rehydrate.
    for (int rep = 0; rep < kCheckpointReps; ++rep) {
      const std::uint64_t t0 = NowNs();
      std::ostringstream out;
      core::Status status;
      {
        ScopedSpan span(spans, SpanName::kSaveState, 0);
        status = detector->SaveState(&out);
      }
      std::string blob = out.str();
      if (status.ok()) {
        ScopedSpan span(spans, SpanName::kStorePut, 0);
        status = store.Put(inputs.Id(session), blob);
      }
      const std::uint64_t t1 = NowNs();
      std::string loaded;
      if (status.ok()) {
        ScopedSpan span(spans, SpanName::kStoreGet, 0);
        status = store.Get(inputs.Id(session), &loaded);
      }
      std::unique_ptr<core::StreamingDetector> restored;
      if (status.ok()) {
        ScopedSpan span(spans, SpanName::kLoadState, 0);
        restored = Build(inputs, session);
        std::istringstream in(loaded);
        status = restored->LoadState(&in);
      }
      if (status.ok()) {
        // The step a rehydration serves pays for state rebuilt lazily
        // after LoadState (model caches), so it is part of the miss.
        const double* v =
            inputs.Values(session, bench.sent(session) + static_cast<std::uint64_t>(rep));
        const core::StreamVector values(v, v + kChannels);
        ScopedSpan span(spans, SpanName::kStep, 0);
        restored->Step(values);
      }
      const std::uint64_t t2 = NowNs();
      if (!status.ok()) {
        result.mismatches.push_back(Describe(inputs, session, detector->t(),
                                             status.ToString().c_str()));
        break;
      }
      result.evict_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      result.rehydrate_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      result.checkpoint_bytes.push_back(static_cast<double>(blob.size()));
      detector = std::move(restored);
    }
  }
  return result;
}

StageResult StageReplay(const Inputs& inputs, const TcpBench& bench,
                        const std::vector<std::size_t>& sessions) {
  StageResult result;
  obs::MetricsRegistry registry;
  for (const std::size_t session : sessions) {
    auto detector = Build(inputs, session);
    obs::Recorder recorder(&registry);
    detector->set_recorder(&recorder);
    ForEachEvent(inputs, bench, session, IsChecked(inputs, session),
                 [&](const auto& values) { detector->Step(values); });
    detector->set_recorder(nullptr);
    const obs::StageTotals& totals = recorder.totals();
    for (std::size_t i = 0; i < obs::kNumStages; ++i) {
      const auto stage = static_cast<obs::Stage>(i);
      if (stage == obs::Stage::kFit) continue;
      result.total_ns[i] += static_cast<double>(totals.StageNs(stage));
    }
  }
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const std::string name = std::string("streamad_stage_") +
                             obs::StageName(static_cast<obs::Stage>(i)) +
                             "_ns_summary";
    const obs::QuantileSketch::Snapshot snap =
        registry.GetSketch(name)->Snap();
    result.p50_ns[i] = snap.p50();
    result.p99_ns[i] = snap.p99();
  }
  return result;
}

CodecResult RunCodec(const Inputs& inputs, SpanLog* spans) {
  const std::size_t batch_size = inputs.workload().batch_size;
  const std::size_t batches = kCodecEvents / batch_size;
  wire::EventBatchFrame events;
  events.events.resize(batch_size);
  wire::ScoreBatchFrame scores;
  scores.entries.resize(batch_size);
  std::string bytes;
  wire::Frame frame;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::uint64_t cursor = 0;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    wire::FrameAssembler assembler;
    std::uint64_t encode = 0;
    std::uint64_t decode = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      events.batch_id = b + 1;
      for (std::size_t j = 0; j < batch_size; ++j) {
        const std::size_t s = inputs.KeyAt(cursor);
        const double* v = inputs.Values(s, cursor);
        events.events[j].stream_id.assign(inputs.Id(s));
        events.events[j].values.assign(v, v + kChannels);
        wire::ScoreEntry& entry = scores.entries[j];
        entry.stream_id.assign(inputs.Id(s));
        entry.t = static_cast<std::int64_t>(cursor);
        entry.flags = wire::kScoreFlagScored;
        entry.nonconformity = v[0];
        entry.anomaly_score = v[1];
        ++cursor;
      }
      std::uint64_t t0 = NowNs();
      bytes.clear();
      {
        ScopedSpan span(spans, SpanName::kAppendEventBatch, events.batch_id);
        wire::AppendEventBatch(&bytes, events);
      }
      std::uint64_t t1 = NowNs();
      bool ok = false;
      {
        ScopedSpan span(spans, SpanName::kDecodeEventBatch, events.batch_id);
        assembler.Append(bytes);
        ok = assembler.Next(&frame) == wire::FrameAssembler::Result::kFrame &&
             std::get<wire::EventBatchFrame>(frame.payload).events.size() ==
                 batch_size;
      }
      std::uint64_t t2 = NowNs();
      bytes.clear();
      {
        ScopedSpan span(spans, SpanName::kAppendScoreBatch, events.batch_id);
        wire::AppendScoreBatch(&bytes, scores);
      }
      std::uint64_t t3 = NowNs();
      {
        ScopedSpan span(spans, SpanName::kDecodeScoreBatch, events.batch_id);
        assembler.Append(bytes);
        ok = ok &&
             assembler.Next(&frame) == wire::FrameAssembler::Result::kFrame &&
             std::get<wire::ScoreBatchFrame>(frame.payload).entries.size() ==
                 batch_size;
      }
      std::uint64_t t4 = NowNs();
      if (!ok) return CodecResult{};
      encode += (t1 - t0) + (t3 - t2);
      decode += (t2 - t1) + (t4 - t3);
    }
    const double n = static_cast<double>(batches * batch_size);
    encode_ns.push_back(static_cast<double>(encode) / n);
    decode_ns.push_back(static_cast<double>(decode) / n);
  }
  return CodecResult{true, Median(encode_ns), Median(decode_ns)};
}

InprocResult RunInproc(const Inputs& inputs, bool metrics, double seconds,
                       bool count_allocs, SpanLog* spans) {
  const Workload& workload = inputs.workload();
  // Declared before the fleet: its session callbacks point at these.
  std::atomic<std::uint64_t> completed{0};
  // Scores per session: one slot each, written only by that session's
  // shard worker.
  std::vector<std::atomic<std::uint64_t>> session_done(inputs.sessions());
  obs::MetricsRegistry registry;
  serve::MemoryCheckpointStore store;
  serve::DetectorFleet fleet(
      FleetOptionsFor(workload, metrics ? &registry : nullptr, &store));
  for (std::size_t s = 0; s < inputs.sessions(); ++s) {
    serve::SessionConfig config = inputs.SessionConfig(s);
    std::atomic<std::uint64_t>* done = &session_done[s];
    config.on_result = [&completed, done](const std::string&,
                                          const serve::SessionStepResult&) {
      done->fetch_add(1, std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_relaxed);
    };
    if (!fleet.CreateSession(inputs.Id(s), config).ok()) return InprocResult{};
  }

  std::vector<std::uint64_t> next_k(inputs.sessions(), 0);
  std::vector<serve::Event> batch(workload.batch_size);
  for (serve::Event& event : batch) event.values.reserve(kChannels);
  std::vector<serve::Admission> admissions(workload.batch_size);
  std::uint64_t batch_id = 0;
  auto submit = [&](const std::size_t* keys, std::size_t count) {
    batch.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t s = keys[j];
      const double* v = inputs.Values(s, next_k[s]++);
      batch[j].stream_id.assign(inputs.Id(s));
      batch[j].values.assign(v, v + kChannels);
    }
    ScopedSpan span(spans, SpanName::kSubmitBatch, ++batch_id);
    fleet.SubmitBatch(std::span<const serve::Event>(batch.data(), count),
                      admissions.data());
  };

  // Warm-up as in the TCP run, session-major, then idle.
  std::vector<std::size_t> keys(workload.batch_size);
  std::size_t filled = 0;
  std::uint64_t submitted = 0;
  for (std::size_t s = 0; s < inputs.sessions(); ++s) {
    for (std::uint64_t e = 0; e < WarmEvents(s); ++e) {
      keys[filled++] = s;
      if (filled < keys.size()) continue;
      while (submitted - fleet.Stats().processed > workload.closed_window) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      submit(keys.data(), filled);
      submitted += filled;
      filled = 0;
    }
  }
  if (filled > 0) submit(keys.data(), filled);
  fleet.WaitIdle();

  // Closed loop over the scored completions, windows as over TCP.
  const std::uint64_t base = completed.load(std::memory_order_relaxed);
  std::vector<std::uint64_t> session_base(inputs.sessions());
  for (std::size_t s = 0; s < inputs.sessions(); ++s) {
    session_base[s] = session_done[s].load(std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> session_sent(inputs.sessions(), 0);
  std::uint64_t sent = 0;
  std::uint64_t cursor = 0;
  const double cpu0 = ProcessCpuSeconds();
  if (count_allocs) EnableAllocCounting(true);
  const std::uint64_t allocs0 = AllocCount();
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const std::uint64_t done =
        completed.load(std::memory_order_relaxed) - base;
    std::size_t filled_now = 0;
    if (sent - done + keys.size() <= workload.closed_window) {
      auto has_room = [&](std::size_t s) {
        const std::uint64_t answered =
            session_done[s].load(std::memory_order_relaxed) - session_base[s];
        return session_sent[s] - answered < workload.closed_session_cap;
      };
      while (filled_now < keys.size() &&
             inputs.NextClosedKey(&cursor, has_room, &keys[filled_now])) {
        ++session_sent[keys[filled_now++]];
      }
    }
    if (filled_now == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    submit(keys.data(), filled_now);
    sent += filled_now;
  }
  {
    ScopedSpan span(spans, SpanName::kWaitIdle, 0);
    fleet.WaitIdle();
  }
  const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
  const std::uint64_t allocs = AllocCount() - allocs0;
  if (count_allocs) EnableAllocCounting(false);
  const double cpu = ProcessCpuSeconds() - cpu0;
  fleet.Stop();

  InprocResult result;
  result.ok = true;
  const double events = static_cast<double>(sent);
  result.eps = events / elapsed;
  result.cpu_us_per_event = cpu * 1e6 / events;
  result.allocs_per_event = static_cast<double>(allocs) / events;
  return result;
}

}  // namespace e2ebench
