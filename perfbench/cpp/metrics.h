// The metric sets every pass reports, each in one fixed order so every
// workload emits the same names. End-to-end figures come from the workload's
// own timing and output checks (EndToEnd). Per-layer figures (traced passes
// only; layers a workload does not exercise read 0) come from three outside
// views of the measured window: counters read from public accessors
// (WindowObs), telemetry registry deltas, and the stage profiler's fold.
#pragma once

#include <cstdint>

#include "common.h"
#include "prof/prof.h"
#include "telemetry/metrics.h"

namespace perfbench {

/// What a user of the system sees; every value is nonzero on a healthy run.
struct EndToEnd {
  double setup_s = 0.0;          // median over the run's set-ups
  double sim_speed = 0.0;        // monitored seconds per wall second
  double records_per_s = 0.0;    // probe results reaching analysis per second
  double close_p50_ms = 0.0;     // period close wall time, median
  double close_p90_ms = 0.0;
  double verdict_precision = 0.0;
  double verdict_recall = 0.0;
  double upload_delivered_share = 0.0;
};

void emit_end_to_end(const EndToEnd& e, RunResult& out);

/// What the workload itself observed during its measured window.
struct WindowObs {
  double wall_s = 0.0;             // measured window, wall seconds
  std::uint64_t events = 0;        // Scheduler::executed_events delta
  std::uint64_t dispatch_ns = 0;   // summed event-callback wall time
  std::uint64_t pending_max = 0;   // max Scheduler::pending_events seen
  std::uint64_t probes = 0;        // sum of Agent::probes_sent deltas
  std::uint64_t digests = 0;       // sum of PodAnalyzer::digests_sent deltas
  std::uint64_t checkpoint_bytes = 0;  // StateJournal, all roles, at the end
  std::uint64_t problems = 0;      // verdicts in the scored history
  int recovery_periods_max = 0;    // ChaosReport recoveries, max
  std::uint64_t mislocalized = 0;  // ChaosReport: claims naming the wrong entity
  double submit_us_p50 = -1.0;     // timed around submit(); <0: profiler's
  double trace_overhead = 1.0;     // untraced / traced speed
};

void emit_layers(const WindowObs& w, const rpm::telemetry::Snapshot& before,
                 const rpm::telemetry::Snapshot& after,
                 const rpm::prof::ProfileReport& prof, RunResult& out);

/// Every metric of each set, in emission order (the self-test compares them
/// with BENCHMARK.json).
std::vector<Metric> end_to_end_metrics();
std::vector<Metric> layer_metrics();

}  // namespace perfbench
