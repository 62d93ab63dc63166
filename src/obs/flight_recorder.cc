#include "src/obs/flight_recorder.h"

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "src/common/check.h"
#include "src/obs/step_json.h"

namespace streamad::obs {
namespace {

void AppendF(std::string* out, const char* format, ...) {
  char buffer[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out->append(buffer);
}

}  // namespace

void AppendStepJson(std::string_view label, const StepObservation& step,
                    std::string* line) {
  if (!label.empty()) {
    *line += "\"run\":\"";
    line->append(label);  // labels are identifiers; no escaping needed
    *line += "\",";
  }
  AppendF(line, "\"t\":%" PRId64, step.t);
  *line += step.scored ? ",\"scored\":true" : ",\"scored\":false";
  if (step.scored) {
    AppendF(line, ",\"a\":%.17g,\"f\":%.17g", step.nonconformity,
            step.anomaly_score);
  }
  *line += step.finetuned ? ",\"finetuned\":true" : ",\"finetuned\":false";
}

void AppendStageNsJson(const std::array<std::uint64_t, kNumStages>& stage_ns,
                       std::string* line) {
  *line += ",\"stage_ns\":{";
  bool first = true;
  for (std::size_t s = 0; s < kNumStages; ++s) {
    if (stage_ns[s] == 0) continue;
    if (!first) *line += ',';
    first = false;
    AppendF(line, "\"%s\":%" PRIu64, StageName(static_cast<Stage>(s)),
            stage_ns[s]);
  }
  *line += '}';
}

namespace {

/// Process-global list of flight recorders that want a crash dump. Guarded
/// by a mutex for registration; the crash path iterates without taking it
/// (the process is aborting — a rare torn read beats a deadlock when the
/// failed check fires while the lock is held).
struct CrashDumpRegistry {
  std::mutex mutex;
  std::vector<const FlightRecorder*> recorders;
};

CrashDumpRegistry& GlobalCrashDumpRegistry() {
  static CrashDumpRegistry registry;
  return registry;
}

void CrashDumpHook() { FlightRecorder::DumpAllRegistered("check_failure"); }

void RegisterForCrashDump(const FlightRecorder* recorder) {
  CrashDumpRegistry& registry = GlobalCrashDumpRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.recorders.push_back(recorder);
  if (registry.recorders.size() == 1) {
    common::SetCheckFailureHook(&CrashDumpHook);
  }
}

void UnregisterForCrashDump(const FlightRecorder* recorder) {
  CrashDumpRegistry& registry = GlobalCrashDumpRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<const FlightRecorder*>& recorders = registry.recorders;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    if (recorders[i] == recorder) {
      recorders.erase(recorders.begin() + static_cast<long>(i));
      break;
    }
  }
  if (recorders.empty()) common::SetCheckFailureHook(nullptr);
}

/// Wall-clock milliseconds for the dump header — post-mortems need to be
/// correlated with external logs, so this is real time, not the steady
/// clock the latency spans use.
std::int64_t UnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  STREAMAD_CHECK_MSG(capacity > 0, "flight recorder capacity must be >= 1");
  ring_.resize(capacity);
}

FlightRecorder::~FlightRecorder() {
  if (registered_) UnregisterForCrashDump(this);
}

void FlightRecorder::set_dump_path(std::string path) {
  dump_path_ = std::move(path);
  const bool want_registered = !dump_path_.empty();
  if (want_registered && !registered_) {
    RegisterForCrashDump(this);
    registered_ = true;
  } else if (!want_registered && registered_) {
    UnregisterForCrashDump(this);
    registered_ = false;
  }
}

void FlightRecorder::Record(const FlightRecord& record) {
  ring_[static_cast<std::size_t>(total_ % ring_.size())] = record;
  ++total_;
}

std::size_t FlightRecorder::size() const {
  return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                               : ring_.size();
}

const FlightRecord& FlightRecorder::At(std::size_t i) const {
  STREAMAD_DCHECK(i < size());
  const std::uint64_t oldest = total_ <= ring_.size() ? 0 : total_ - ring_.size();
  return ring_[static_cast<std::size_t>((oldest + i) % ring_.size())];
}

void FlightRecorder::Dump(std::ostream* out, std::string_view reason) const {
  STREAMAD_CHECK(out != nullptr);
  std::string line;
  line.reserve(256);
  line += "{\"flight\":\"header\",\"reason\":\"";
  line.append(reason.data(), reason.size());
  line += '"';
  if (!label_.empty()) {
    line += ",\"run\":\"";
    line += label_;  // labels are identifiers; no escaping needed
    line += '"';
  }
  AppendF(&line, ",\"capacity\":%zu,\"retained\":%zu,\"total\":%" PRIu64
                 ",\"unix_ms\":%" PRId64,
          ring_.size(), size(), total_, UnixMillis());
  line += '}';
  *out << line << '\n';

  for (std::size_t i = 0; i < size(); ++i) {
    const FlightRecord& record = At(i);
    const StepObservation& step = record.step;
    line.clear();
    line += "{\"flight\":\"step\",";
    AppendStepJson(label_, step, &line);
    AppendF(&line,
            ",\"x_min\":%.17g,\"x_max\":%.17g,\"x_mean\":%.17g"
            ",\"drift_stat\":%.17g,\"train_size\":%" PRIu64,
            step.input_min, step.input_max, step.input_mean,
            step.drift_statistic, step.train_size);
    AppendStageNsJson(record.stage_ns, &line);
    line += '}';
    *out << line << '\n';
  }
  out->flush();
}

bool FlightRecorder::DumpToPath(std::string_view reason) const {
  if (dump_path_.empty()) return false;
  std::ofstream out(dump_path_, std::ios::trunc);
  if (!out.is_open()) return false;
  Dump(&out, reason);
  return out.good();
}

void FlightRecorder::DumpAllRegistered(std::string_view reason) {
  // Deliberately lock-free: this runs on the abort path, possibly while
  // another thread (or this one) holds the registration mutex.
  const std::vector<const FlightRecorder*>& recorders =
      GlobalCrashDumpRegistry().recorders;
  for (const FlightRecorder* recorder : recorders) {
    recorder->DumpToPath(reason);
  }
}

}  // namespace streamad::obs
