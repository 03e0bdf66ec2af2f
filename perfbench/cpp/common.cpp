#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

CoreRotation::CoreRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CoreRotation::~CoreRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

void CoreRotation::step() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

rpm::topo::ClosConfig clos256() {
  rpm::topo::ClosConfig c;
  c.num_pods = 4;
  c.tors_per_pod = 4;
  c.aggs_per_pod = 2;
  c.spines_per_plane = 2;
  c.hosts_per_tor = 16;
  c.rnics_per_host = 1;
  return c;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double RunResult::e2e_value(const std::string& name) const {
  for (const Metric& m : end_to_end) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::uint64_t Spans::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

int Spans::begin(const char* name) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();  // Scopes close innermost-first
}

std::vector<std::int64_t> Spans::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<std::int64_t>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<std::int64_t>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

bool Spans::nested() const {
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
  }
  return true;
}

std::string Spans::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  out += "]}";
  return out;
}

namespace {

double family_sum(const rpm::telemetry::Snapshot& s, const std::string& family,
                  const std::string& channel_prefix,
                  const std::string& result) {
  double total = 0.0;
  for (const rpm::telemetry::SeriesSample& x : s.series) {
    if (x.name != family) continue;
    bool keep = channel_prefix.empty();
    for (const rpm::telemetry::Label& l : x.labels) {
      if (l.key == "channel" && !channel_prefix.empty()) {
        keep = l.value.rfind(channel_prefix, 0) == 0;
      }
    }
    for (const rpm::telemetry::Label& l : x.labels) {
      if (l.key == "result" && !result.empty() && l.value != result) {
        keep = false;
      }
    }
    if (!keep) continue;
    total += x.type == rpm::telemetry::MetricType::kGauge
                 ? x.gauge_value
                 : static_cast<double>(x.counter_value);
  }
  return total;
}

}  // namespace

double family_delta(const rpm::telemetry::Snapshot& before,
                    const rpm::telemetry::Snapshot& after,
                    const std::string& family,
                    const std::string& channel_prefix,
                    const std::string& result) {
  return family_sum(after, family, channel_prefix, result) -
         family_sum(before, family, channel_prefix, result);
}

}  // namespace perfbench
