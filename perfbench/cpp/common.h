// Shared plumbing of the repository benchmark: wall clock, order statistics,
// the metric list a run reports, the span recorder used by traced runs, and
// registry-snapshot helpers.
//
// Everything here observes the program from outside: spans wrap the
// benchmark's own calls into public entry points, and counters are read
// from accessors and telemetry families the program already exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Moves the calling thread to the next CPU it may run on, one CPU per
/// step(), and restores its CPU mask on destruction. On a shared host each
/// core's speed changes in phases of seconds, largely independently of the
/// other cores, so a run whose timed work is on one thread is hostage to the
/// core that thread lands on. Stepping through every allowed core between
/// timed steps averages the run over them.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void step();

 private:
  std::vector<int> cpus_;  // the thread's CPU mask at construction
  std::size_t next_ = 0;
};

/// The 256-host fabric every workload runs on: a 4-pod Clos with 4 ToRs per
/// pod, 16 hosts per ToR and 1 RNIC per host.
rpm::topo::ClosConfig clos256();

/// 64-bit FNV-1a, fed byte by byte: the generator's batch hash and the
/// manifest's verdict hash, so two runs can be compared from their stdout.
class Fnv1a {
 public:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  /// The 8 bytes of `v`, least significant first.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Median of a sample (mean of the middle two for even sizes); 0 if empty.
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of a sample; 0 if empty.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// One reported figure, in the order the workload produced it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one pass of a workload produces. The correctness gate
/// compares `verdict_bytes` and `counts` between an untraced and a traced
/// pass of the same seed; they must be equal.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // filled by traced passes only
  std::string verdict_bytes;      // ChaosReport JSON / verdict digest text
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks, human readable
  std::string params;               // workload parameters, JSON object body

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  [[nodiscard]] double e2e_value(const std::string& name) const;
};

/// Wall-clock spans around the benchmark's calls into each layer. A span's
/// parent is the span open when it began, so spans nest by construction;
/// self time is a span's duration minus its children's. Spans stay in
/// memory and are written out once, after the run.
class Spans {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit Spans(bool on) : on_(on), epoch_(Clock::now()) {}

  /// Opens a span under the innermost open span; -1 when recording is off.
  int begin(const char* name);
  void end(int id);

  class Scope {
   public:
    Scope(Spans& s, const char* name) : s_(s), id_(s.begin(name)) {}
    ~Scope() { s_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per span: duration minus the durations of its direct children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Every closed span lies inside its parent's interval.
  [[nodiscard]] bool nested() const;
  /// chrome://tracing "X" events for every span.
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The part of a process-wide cumulative registry counter that accrued
/// between two snapshots, summed over every series of `family` whose
/// `channel` label starts with `channel_prefix` (empty: every series),
/// optionally restricted to one `result` label value.
double family_delta(const rpm::telemetry::Snapshot& before,
                    const rpm::telemetry::Snapshot& after,
                    const std::string& family,
                    const std::string& channel_prefix = "",
                    const std::string& result = "");

}  // namespace perfbench
