// End-to-end benchmark of streamad as an operator deploys it: an
// `IngressService` + `DetectorFleet` (2 shards, metrics registry and
// session analytics on) fed over loopback TCP by one generator thread.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--span-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (spans, the layer ladder, allocation counts). Every run
// checks its outputs; the last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. See README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "ladder.h"
#include "tcp_run.h"
#include "workload.h"

namespace {

using namespace e2ebench;
namespace obs = streamad::obs;

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 5;
/// Slices of the closed loop (`throughput_eps`) and of the open loop's
/// latencies (`latency_p50_us`); each metric is the median over them.
constexpr int kSlices = 5;
/// Share of `--seconds` spent in the closed loop; the rest is open loop.
constexpr double kClosedShare = 0.4;
/// In-process fleet repetitions per metrics setting in a traced run.
constexpr int kInprocReps = 2;
constexpr std::size_t kSpanCapacity = 1u << 21;
/// `gen.latency_trimmed_mean_us` averages the fastest 99% of events: it
/// moves with the share and the length of delayed events, not with the rare
/// 40 ms wire stalls (README.md).
constexpr double kTrimmedShare = 0.99;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--span-dir") {
      args->span_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintFingerprint(const Args& args) {
  const char* sha = std::getenv("E2EBENCH_SOURCE_ID");
  std::printf(
      "fingerprint: {\"nproc\": %ld, \"cpu_model\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"source\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(ReadCpuModel()).c_str(),
      E2EBENCH_COMPILER, E2EBENCH_BUILD_TYPE,
      JsonEscape(sha != nullptr ? sha : "unknown").c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
}

/// Median over `slices` consecutive slices of `values` of each slice's
/// median: a stretch of stalled replies moves at most the slices it hits.
double SliceMedian(const std::vector<double>& values, int slices) {
  std::vector<double> medians;
  const std::size_t n = values.size();
  for (int i = 0; i < slices; ++i) {
    const std::size_t begin = n * static_cast<std::size_t>(i) /
                              static_cast<std::size_t>(slices);
    const std::size_t end = n * static_cast<std::size_t>(i + 1) /
                            static_cast<std::size_t>(slices);
    if (begin == end) continue;
    medians.push_back(Median(std::vector<double>(
        values.begin() + static_cast<std::ptrdiff_t>(begin),
        values.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  return Median(medians);
}

/// Mean of the fastest `share` of `values`.
double FastestMean(std::vector<double> values, double share) {
  const std::size_t keep =
      static_cast<std::size_t>(share * static_cast<double>(values.size()));
  if (keep == 0) return 0.0;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   values.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) sum += values[i];
  return sum / static_cast<double>(keep);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-event cost split of `cpu_us_per_event` from the ladder, and the
/// statement of which layer dominates.
void ReportLayerSplit(const Workload& workload, const Metrics& m,
                      const StageResult& stages, double core_us,
                      double checkpoint_us) {
  const double total = m.Get("cpu_us_per_event");
  const double codec_us = (m.Get("net.encode_ns_per_event") +
                           m.Get("net.decode_ns_per_event")) *
                          1e-3;
  const double serve_us =
      m.Get("serve.inproc_cpu_us_per_event") - core_us - checkpoint_us;
  const double rest_us = total - codec_us - serve_us - core_us - checkpoint_us;
  struct Part {
    const char* layer;
    double us;
  };
  const Part parts[] = {
      {"net (codec)", codec_us},
      {"net (sockets, event loop, generator; unattributed)", rest_us},
      {"serve (fleet: admission, queues, LRU, delivery, analytics)",
       serve_us},
      {"serve (evict + rehydrate)", checkpoint_us},
      {"core (detector Step)", core_us},
  };
  std::printf("layer split of cpu_us_per_event = %.3f us:\n", total);
  const Part* top = &parts[0];
  for (const Part& part : parts) {
    std::printf("  %-54s %9.3f us  %5.1f%%\n", part.layer, part.us,
                100.0 * Ratio(part.us, total));
    if (part.us > top->us) top = &part;
  }
  double stage_total = 0.0;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    stage_total += stages.total_ns[i];
  }
  std::printf("  core by stage:");
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    if (stage == obs::Stage::kQueueWait || stage == obs::Stage::kFit) continue;
    std::printf(" %s %.1f%%", obs::StageName(stage),
                100.0 * Ratio(stages.total_ns[i], stage_total));
  }
  std::printf("\n");
  std::printf("dominant layer: %s\n", top->layer);

  const std::string name = workload.name;
  const double finetune_drift =
      stages.total_ns[static_cast<std::size_t>(obs::Stage::kFinetune)] +
      stages.total_ns[static_cast<std::size_t>(obs::Stage::kDriftCheck)];
  std::string prediction;
  bool held = false;
  if (name == "ingest_light") {
    prediction = "net and serve dominate, core does little";
    held = codec_us + rest_us + serve_us > core_us + checkpoint_us &&
           top->us != core_us;
  } else if (name == "finetune_heavy") {
    prediction = "core dominates, mostly finetune and drift_check";
    held = top->us == core_us && finetune_drift > 0.5 * stage_total;
  } else {
    prediction = "evict + rehydrate dominate";
    held = top->us == checkpoint_us;
  }
  std::printf("prediction (%s): %s\n", prediction.c_str(),
              held ? "held" : "WRONG on this run");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--span-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure a build with assertions on\n");
  return 3;
#endif
  if (std::string(E2EBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; use Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 3;
  }
  PrintFingerprint(args);
  timespec resolution{};
  clock_getres(CLOCK_MONOTONIC, &resolution);
  std::printf(
      "receive stamps: CLOCK_MONOTONIC (resolution %ld ns), one per "
      "SCORE_BATCH frame, taken when ReadFrame returns it; the generator "
      "waits in ppoll(2) between sends, so a frame is read as it arrives\n",
      resolution.tv_nsec);

  const Inputs inputs(*workload, args.seed);

  // Set-up, several times; the last one is measured.
  std::unique_ptr<TcpBench> bench;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    const std::uint64_t t0 = NowNs();
    bench = std::make_unique<TcpBench>(inputs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!bench->errors().empty()) break;
  }

  const double closed_s = args.seconds * kClosedShare;
  const double open_s = args.seconds - closed_s;
  const std::vector<double> closed_eps =
      bench->RunClosed(closed_s, kSlices, nullptr);
  OpenLoopResult open = bench->RunOpen(open_s, args.trace);

  std::unique_ptr<SpanLog> spans;
  std::vector<double> traced_eps;
  if (args.trace) {
    spans = std::make_unique<SpanLog>(kSpanCapacity);
    traced_eps = bench->RunClosed(closed_s, kSlices, spans.get());
  }
  bench->Stop();
  std::vector<std::string> errors = bench->errors();

  // Correctness gate (outside every timed window) and the core layer.
  const ReplayResult replay =
      Replay(inputs, *bench, inputs.ReplaySessions(args.trace), args.trace,
             spans.get());
  for (const std::string& mismatch : replay.mismatches) {
    errors.push_back("replay: " + mismatch);
  }
  if (bench->never_scored() > 0) {
    errors.push_back(std::to_string(bench->never_scored()) +
                     " events were neither scored nor NACKed");
  }

  const std::uint64_t attempted = bench->attempted();
  const std::uint64_t failed = bench->nacked_dropped() +
                               bench->nacked_unknown() +
                               bench->never_scored();

  Metrics m;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("throughput_eps", Median(closed_eps), "1/s");
  std::vector<double> latency = open.latency_us;
  m.Set("latency_p50_us", SliceMedian(open.latency_us, kSlices), "us");
  m.Set("cpu_us_per_event",
        open.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                               open.events, 1)),
        "us");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<std::string> end_to_end = m.order();
  m.Set("fail_share",
        Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio");
  // Reported, not gated: see README.md on why the tail swings from run to
  // run.
  m.Set("gen.latency_trimmed_mean_us", FastestMean(latency, kTrimmedShare),
        "us");
  m.Set("gen.latency_p90_us", Quantile(&latency, 0.90), "us");
  m.Set("gen.latency_p99_us", Quantile(&latency, 0.99), "us");
  m.Set("gen.latency_samples", static_cast<double>(open.latency_us.size()),
        "count");
  m.Set("gen.lag_p50_us", Quantile(&open.lag_us, 0.50), "us");
  m.Set("gen.lag_p99_us", Quantile(&open.lag_us, 0.99), "us");

  std::vector<std::string> per_layer;
  if (args.trace) {
    const std::vector<std::size_t> replayed = inputs.ReplaySessions(true);
    const StageResult stages = StageReplay(inputs, *bench, replayed);
    const CodecResult codec = RunCodec(inputs, spans.get());
    if (!codec.ok) errors.push_back("wire codec round trip failed");
    std::vector<double> on_eps, off_eps, on_cpu, on_allocs;
    for (int rep = 0; rep < kInprocReps; ++rep) {
      // Both settings carry the same benchmark instrumentation (spans,
      // allocation counting), so their ratio is the live plane's cost.
      const InprocResult on =
          RunInproc(inputs, true, closed_s / 2, true, spans.get());
      const InprocResult off =
          RunInproc(inputs, false, closed_s / 2, true, spans.get());
      if (!on.ok || !off.ok) errors.push_back("in-process fleet set-up failed");
      on_eps.push_back(on.eps);
      on_cpu.push_back(on.cpu_us_per_event);
      on_allocs.push_back(on.allocs_per_event);
      off_eps.push_back(off.eps);
    }
    const double events = static_cast<double>(open.events);
    const std::size_t first = m.order().size();
    m.Set("net.encode_ns_per_event", codec.encode_ns_per_event, "ns");
    m.Set("net.decode_ns_per_event", codec.decode_ns_per_event, "ns");
    m.Set("net.bytes_in_per_event",
          Ratio(static_cast<double>(open.bytes_in), events), "B");
    m.Set("net.bytes_out_per_event",
          Ratio(static_cast<double>(open.bytes_out), events), "B");
    m.Set("net.frames_out_per_kevent",
          1000.0 * Ratio(static_cast<double>(open.frames_out), events),
          "count");
    m.Set("net.wire_tax", Ratio(Median(on_eps), m.Get("throughput_eps")),
          "ratio");
    m.Set("net.allocs_per_event",
          Ratio(static_cast<double>(open.allocs), events), "count");
    m.Set("serve.inproc_eps", Median(on_eps), "1/s");
    m.Set("serve.inproc_cpu_us_per_event", Median(on_cpu), "us");
    m.Set("serve.allocs_per_event", Median(on_allocs), "count");
    m.Set("serve.queue_wait_p50_ns", open.queue_wait_p50_ns, "ns");
    m.Set("serve.queue_wait_p99_ns", open.queue_wait_p99_ns, "ns");
    m.Set("serve.shard_step_p50_ns", open.shard_step_p50_ns, "ns");
    m.Set("serve.shard_step_p99_ns", open.shard_step_p99_ns, "ns");
    m.Set("serve.throttle_share",
          Ratio(static_cast<double>(bench->nacked_throttled()),
                static_cast<double>(attempted)),
          "ratio");
    double max_shard = 0.0;
    for (const std::uint64_t count : open.shard_processed) {
      max_shard = std::max(max_shard, static_cast<double>(count));
    }
    const double processed = static_cast<double>(open.processed);
    const double rehydrations = static_cast<double>(open.rehydrations);
    const double evictions = static_cast<double>(open.evictions);
    m.Set("serve.shard_skew",
          Ratio(max_shard,
                processed / static_cast<double>(open.shard_processed.size())),
          "ratio");
    m.Set("serve.resident_hit_ratio", 1.0 - Ratio(rehydrations, processed),
          "ratio");
    m.Set("serve.evict_us", Median(replay.evict_us), "us");
    m.Set("serve.rehydrate_us", Median(replay.rehydrate_us), "us");
    m.Set("io.checkpoint_bytes", Median(replay.checkpoint_bytes), "B");
    std::vector<double> step_ns = replay.step_ns;
    m.Set("core.step_p50_ns", Quantile(&step_ns, 0.50), "ns");
    m.Set("core.step_p99_ns", Quantile(&step_ns, 0.99), "ns");
    m.Set("core.fit_ms", Median(replay.fit_ms), "ms");
    m.Set("core.finetunes_per_kevent",
          1000.0 * Ratio(static_cast<double>(bench->timed_finetunes()),
                         static_cast<double>(bench->timed_entries())),
          "count");
    m.Set("core.allocs_per_step",
          Ratio(static_cast<double>(replay.step_allocs),
                static_cast<double>(replay.step_ns.size())),
          "count");
    for (const obs::Stage stage :
         {obs::Stage::kRepresentation, obs::Stage::kNonconformity,
          obs::Stage::kScoring, obs::Stage::kTrainOffer,
          obs::Stage::kDriftCheck, obs::Stage::kFinetune}) {
      const std::size_t i = static_cast<std::size_t>(stage);
      const std::string prefix = std::string("stage.") + obs::StageName(stage);
      m.Set(prefix + ".p50_ns", stages.p50_ns[i], "ns");
      m.Set(prefix + ".p99_ns", stages.p99_ns[i], "ns");
    }
    m.Set("obs.overhead_ratio", Ratio(Median(on_eps), Median(off_eps)),
          "ratio");
    m.Set("trace.overhead_ratio",
          Ratio(Median(traced_eps), m.Get("throughput_eps")), "ratio");
    // The ladder's per-event costs: codec, in-process fleet (which holds
    // the detector steps and, under an LRU cap, the checkpoint traffic).
    const double explained = (codec.encode_ns_per_event +
                              codec.decode_ns_per_event) * 1e-3 +
                             Median(on_cpu);
    m.Set("reconcile.unattributed_share",
          1.0 - Ratio(explained, m.Get("cpu_us_per_event")), "ratio");
    for (std::size_t i = first; i < m.order().size(); ++i) {
      per_layer.push_back(m.order()[i]);
    }
    for (const char* name :
         {"gen.lag_p50_us", "gen.lag_p99_us", "gen.latency_trimmed_mean_us",
          "gen.latency_p90_us", "gen.latency_p99_us", "gen.latency_samples"}) {
      per_layer.push_back(name);
    }

    const double core_us =
        Ratio(replay.scored_step_ns, static_cast<double>(replay.scored_steps)) *
        1e-3;
    // A miss costs the eviction, and the rehydration less the ordinary
    // step it also performs.
    const double checkpoint_us =
        Ratio(evictions * m.Get("serve.evict_us") +
                  rehydrations * (m.Get("serve.rehydrate_us") - core_us),
              processed);
    ReportLayerSplit(*workload, m, stages, core_us, checkpoint_us);

    for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
         ++i) {
      std::vector<double> durations =
          spans->Durations(static_cast<SpanName>(i));
      if (durations.empty()) continue;
      double sum = 0.0;
      for (const double d : durations) sum += d;
      std::printf("span %-17s n=%-8zu total %10.3f ms  p50 %9.0f ns  p99 %9.0f ns\n",
                  SpanNameString(static_cast<SpanName>(i)), durations.size(),
                  sum * 1e-6, Quantile(&durations, 0.5),
                  Quantile(&durations, 0.99));
    }
    const std::string path = args.span_dir + "/spans_" + workload->name +
                             "_seed" + std::to_string(args.seed) + ".tsv";
    if (spans->WriteTsv(path)) {
      std::printf("spans: %zu kept, %llu over capacity, written to %s\n",
                  spans->spans().size(),
                  static_cast<unsigned long long>(spans->dropped()),
                  path.c_str());
    } else {
      std::printf("spans: could not write %s\n", path.c_str());
    }
  }

  for (const std::string& name : m.order()) {
    std::printf("metric %-34s %16.6f %s\n", name.c_str(), m.Get(name),
                m.Unit(name).c_str());
  }
  for (const std::string& error : errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = errors.empty();

  const std::vector<std::string>& reported =
      args.trace ? per_layer : end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.Get(reported[i]));
    json += (i == 0 ? "\"" : ", \"") + reported[i] + "\": {\"value\": " +
            value + ", \"unit\": \"" + m.Unit(reported[i]) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
