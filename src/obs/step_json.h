#ifndef STREAMAD_OBS_STEP_JSON_H_
#define STREAMAD_OBS_STEP_JSON_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/stage.h"
#include "src/obs/step_observation.h"

// Internal to src/obs (defined in flight_recorder.cc): the JSONL pieces
// shared by the recorder's per-step trace and flight dumps, so a step
// renders the same way in both. Callers open and close the record.
namespace streamad::obs {

/// `"run":"<label>",` (omitted for an empty label), then
/// `"t":..,"scored":..[,"a":..,"f":..],"finetuned":..`.
void AppendStepJson(std::string_view label, const StepObservation& step,
                    std::string* line);
/// `,"stage_ns":{..}`, zero stages omitted.
void AppendStageNsJson(const std::array<std::uint64_t, kNumStages>& stage_ns,
                       std::string* line);

}  // namespace streamad::obs

#endif  // STREAMAD_OBS_STEP_JSON_H_
