#ifndef STREAMAD_E2EBENCH_LADDER_H_
#define STREAMAD_E2EBENCH_LADDER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "src/obs/stage.h"
#include "tcp_run.h"
#include "workload.h"

namespace e2ebench {

/// Sequential `BuildDetector` + `Step` replay of some sessions over the
/// exact events the TCP run sent them: the reference scores of the
/// correctness gate and the `core` layer's costs.
struct ReplayResult {
  /// Bit-identity failures against the scores received over TCP.
  std::vector<std::string> mismatches;
  /// Durations of steady-state, non-finetune steps (ns).
  std::vector<double> step_ns;
  /// Heap allocations over those steps (when counted).
  std::uint64_t step_allocs = 0;
  /// Duration of each session's fitting step (ms).
  std::vector<double> fit_ms;
  /// Every step after the fit, finetunes included.
  std::uint64_t scored_steps = 0;
  double scored_step_ns = 0.0;
  /// Checkpoint round trips of each replayed detector's final state, as
  /// the fleet does them: SaveState + store Put (evict); store Get +
  /// BuildDetector + LoadState + the first Step after it (rehydrate).
  std::vector<double> evict_us;
  std::vector<double> rehydrate_us;
  std::vector<double> checkpoint_bytes;
};

ReplayResult Replay(const Inputs& inputs, const TcpBench& bench,
                    const std::vector<std::size_t>& sessions,
                    bool count_allocs, SpanLog* spans);

/// The same replay with an `obs::Recorder` attached: the six-stage split.
struct StageResult {
  std::array<double, streamad::obs::kNumStages> p50_ns{};
  std::array<double, streamad::obs::kNumStages> p99_ns{};
  /// Total ns per stage over every replayed step.
  std::array<double, streamad::obs::kNumStages> total_ns{};
};

StageResult StageReplay(const Inputs& inputs, const TcpBench& bench,
                        const std::vector<std::size_t>& sessions);

/// Wire codec alone on the workload's batches: EVENT_BATCH encode/decode
/// plus SCORE_BATCH encode/decode of the same events, per event.
struct CodecResult {
  bool ok = false;  // every frame decoded back to its size
  double encode_ns_per_event = 0.0;
  double decode_ns_per_event = 0.0;
};

CodecResult RunCodec(const Inputs& inputs, SpanLog* spans);

/// `DetectorFleet::SubmitBatch` + `WaitIdle` in-process (no TCP), closed
/// loop with the workload's window.
struct InprocResult {
  bool ok = false;  // every session was created
  double eps = 0.0;
  double cpu_us_per_event = 0.0;
  double allocs_per_event = 0.0;
};

InprocResult RunInproc(const Inputs& inputs, bool metrics, double seconds,
                       bool count_allocs, SpanLog* spans);

}  // namespace e2ebench

#endif  // STREAMAD_E2EBENCH_LADDER_H_
