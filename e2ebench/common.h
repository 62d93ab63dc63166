#ifndef STREAMAD_E2EBENCH_COMMON_H_
#define STREAMAD_E2EBENCH_COMMON_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// CLOCK_MONOTONIC in nanoseconds: the clock of every span, due time and
/// receive stamp in the benchmark.
inline std::uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Nearest-rank quantile of `values` (0 for an empty input). Reorders.
inline double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values->size() - 1) + 0.5);
  rank = std::min(rank, values->size() - 1);
  std::nth_element(values->begin(),
                   values->begin() + static_cast<std::ptrdiff_t>(rank),
                   values->end());
  return (*values)[rank];
}

inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// The benchmark's own span names: one per public call it makes into a
/// layer of the program.
enum class SpanName : std::uint8_t {
  kSendEventBatch,    // net::IngressClient::SendEventBatch
  kReadFrame,         // net::IngressClient::ReadFrame
  kAppendEventBatch,  // net::wire::AppendEventBatch
  kDecodeEventBatch,  // net::wire::FrameAssembler Append + Next
  kAppendScoreBatch,  // net::wire::AppendScoreBatch
  kDecodeScoreBatch,  // net::wire::FrameAssembler Append + Next
  kSubmitBatch,       // serve::DetectorFleet::SubmitBatch
  kWaitIdle,          // serve::DetectorFleet::WaitIdle
  kStep,              // core::StreamingDetector::Step
  kSaveState,         // core::StreamingDetector::SaveState
  kLoadState,         // core::BuildDetector + StreamingDetector::LoadState
  kStorePut,          // serve::CheckpointStore::Put
  kStoreGet,          // serve::CheckpointStore::Get
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "SendEventBatch", "ReadFrame",       "AppendEventBatch",
      "DecodeEventBatch", "AppendScoreBatch", "DecodeScoreBatch",
      "SubmitBatch",    "WaitIdle",        "Step",
      "SaveState",      "LoadState",       "StorePut",
      "StoreGet"};
  return kNames[static_cast<std::size_t>(name)];
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// The EVENT_BATCH (or in-process batch) the call served; spans of one
  /// batch share it. 0 where a call serves no single batch.
  std::uint64_t batch_id = 0;
  SpanName name = SpanName::kCount;
};

/// In-memory span store of a traced run: a fixed-capacity buffer filled
/// during the run and written out after it. Spans past the capacity are
/// counted, not kept. The benchmark's spans are never nested, so a span's
/// self time is its duration.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  void Record(SpanName name, std::uint64_t batch_id, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{start_ns, end_ns, batch_id, name});
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Durations (ns) of every kept span named `name`.
  std::vector<double> Durations(SpanName name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns));
      }
    }
    return out;
  }

  /// One line per span: name, batch_id, start_ns, end_ns (tab-separated).
  bool WriteTsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "name\tbatch_id\tstart_ns\tend_ns\n");
    for (const Span& span : spans_) {
      std::fprintf(out, "%s\t%llu\t%llu\t%llu\n", SpanNameString(span.name),
                   static_cast<unsigned long long>(span.batch_id),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Times one call into the program. Inert when `log` is null (the untraced
/// run), so the measured path reads no clock for spans.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, std::uint64_t batch_id)
      : log_(log), name_(name), batch_id_(batch_id),
        start_ns_(log != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Record(name_, batch_id_, start_ns_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanName name_;
  std::uint64_t batch_id_;
  std::uint64_t start_ns_;
};

/// Named results of one run, in insertion order of first `Set`.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = {value, unit};
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.first;
  }
  const std::string& Unit(const std::string& name) const {
    return values_.at(name).second;
  }
  const std::vector<std::string>& order() const { return order_; }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

}  // namespace e2ebench

#endif  // STREAMAD_E2EBENCH_COMMON_H_
