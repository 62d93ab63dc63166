#ifndef STREAMAD_OBS_FLIGHT_RECORDER_H_
#define STREAMAD_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/stage.h"
#include "src/obs/step_observation.h"

namespace streamad::obs {

/// One retained pipeline step: the detector's `StepObservation` (input
/// digest, `a_t`, `f_t`, drift statistic, training-set size) plus where
/// the step's wall-clock went.
struct FlightRecord {
  StepObservation step;
  std::array<std::uint64_t, kNumStages> stage_ns{};
};

/// Fixed-capacity ring buffer of the last N `FlightRecord`s — the
/// detector's black box. All storage is allocated at construction;
/// `Record` is a copy into the ring plus a cursor bump (no allocation, no
/// locking — each flight recorder belongs to one detector thread, like the
/// `Recorder` that owns it).
///
/// Dumps are JSONL: one `{"flight":"header",...}` line (reason, capacity,
/// retained count, wall-clock) followed by one `{"flight":"step",...}`
/// line per retained record, oldest first. Dump triggers:
///   - on demand (`Dump` / `DumpToPath`),
///   - on finetune events (driven by `Recorder::EndStep`),
///   - from the `STREAMAD_CHECK` failure hook: every flight recorder with
///     a dump path registers itself in a process-global list, and a failed
///     check dumps them all before aborting so crashes leave a post-mortem.
class FlightRecorder {
 public:
  /// `capacity` (> 0) is the number of most-recent steps retained.
  explicit FlightRecorder(std::size_t capacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Run label stamped into dump lines (`"run":...`).
  void set_label(std::string label) { label_ = std::move(label); }

  /// Setting a non-empty path registers this recorder for crash dumps and
  /// enables `DumpToPath`. The file is truncated on every dump, so it
  /// always holds the most recent snapshot.
  void set_dump_path(std::string path);
  const std::string& dump_path() const { return dump_path_; }

  void Record(const FlightRecord& record);

  std::size_t capacity() const { return ring_.size(); }
  /// Number of retained records, `min(total recorded, capacity)`.
  std::size_t size() const;
  std::uint64_t total_recorded() const { return total_; }
  /// Retained record `i`, oldest first (`i < size()`).
  const FlightRecord& At(std::size_t i) const;

  void Dump(std::ostream* out, std::string_view reason) const;
  /// Dumps to `dump_path()`; returns false if no path is set or the file
  /// cannot be opened.
  bool DumpToPath(std::string_view reason) const;

  /// Dumps every registered flight recorder to its path. Installed as the
  /// `STREAMAD_CHECK` failure hook; safe to call manually.
  static void DumpAllRegistered(std::string_view reason);

 private:
  std::vector<FlightRecord> ring_;
  std::uint64_t total_ = 0;
  std::string label_;
  std::string dump_path_;
  bool registered_ = false;
};

}  // namespace streamad::obs

#endif  // STREAMAD_OBS_FLIGHT_RECORDER_H_
