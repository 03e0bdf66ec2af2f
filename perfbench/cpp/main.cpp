// perfbench: the repository benchmark program.
//
//   perfbench --workload <flat_mesh|fed_sketch_chaos|analyzer_close>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//   perfbench --selftest | --list-metrics
//
// --trace 0 runs one untraced pass and prints every end-to-end metric.
// --trace 1 runs an untraced pass and then a traced pass of the same seed,
// requires both to produce identical verdict bytes and counts (the
// profiler-on/off invariant), and prints every per-layer metric plus
// trace_overhead. The last stdout line is the result object; the line
// before it is the run manifest, which carries the pass's counts and a hash
// of its verdict bytes (ChaosReport JSON or the per-period verdict digest),
// so two runs of one seed can be compared from their stdout alone.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void print_manifest(const Options& opt, const RunResult& r) {
  Fnv1a verdicts;
  verdicts.bytes(r.verdict_bytes);
  std::string counts;
  for (const auto& [name, value] : r.counts) {
    counts += (counts.empty() ? "\"" : ",\"") + name +
              "\":" + std::to_string(value);
  }
  std::printf(
      "{\"manifest\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%d,"
      "\"trace\":%d,\"params\":{%s},\"counts\":{%s},"
      "\"verdict_fnv1a64\":\"%016llx\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"nproc\":%u,\"commit\":\"%s\","
      "\"source_sha256\":\"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, r.params.c_str(), counts.c_str(),
      static_cast<unsigned long long>(verdicts.value()),
      PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, std::thread::hardware_concurrency(),
      json_escape(env_or("PERFBENCH_COMMIT", "unknown")).c_str(),
      json_escape(env_or("PERFBENCH_SOURCE_SHA256", "unknown")).c_str());
}

void print_result(bool correct, const RunResult& r,
                  const std::vector<Metric>& metrics) {
  std::string m;
  char buf[256];
  for (const Metric& x : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  m.empty() ? "" : ",", x.name.c_str(), x.value,
                  x.unit.c_str());
    m += buf;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), m.c_str());
  std::fflush(stdout);
}

RunResult run_pass(const Options& opt, bool traced, Spans& spans) {
  if (opt.workload == "flat_mesh") {
    return run_full_loop(opt, false, traced, spans);
  }
  if (opt.workload == "fed_sketch_chaos") {
    return run_full_loop(opt, true, traced, spans);
  }
  return run_analyzer_close(opt, traced, spans);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <flat_mesh|fed_sketch_chaos|"
               "analyzer_close> --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n       %s --selftest | --list-metrics\n",
               argv0, argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return run_selftest();
    if (a == "--list-metrics") return list_metrics();
    if (!has_value) return usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stoi(v);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload != "flat_mesh" && opt.workload != "fed_sketch_chaos" &&
      opt.workload != "analyzer_close") {
    return usage(argv[0]);
  }

  Spans off(false);
  RunResult plain = run_pass(opt, false, off);
  for (const std::string& e : plain.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (!opt.trace) {
    print_manifest(opt, plain);
    print_result(plain.errors.empty(), plain, plain.end_to_end);
    return 0;
  }

  // Traced pass of the same seed: the correctness gate requires the same
  // verdict bytes and the same counts as the untraced pass.
  Spans spans(true);
  RunResult traced = run_pass(opt, true, spans);
  bool correct = plain.errors.empty() && traced.errors.empty();
  if (traced.verdict_bytes != plain.verdict_bytes) {
    std::fprintf(stderr, "gate: verdict bytes differ traced vs untraced\n");
    correct = false;
  }
  if (traced.counts != plain.counts) {
    for (std::size_t i = 0; i < plain.counts.size(); ++i) {
      std::fprintf(stderr, "gate: %s untraced=%llu traced=%llu\n",
                   plain.counts[i].first.c_str(),
                   static_cast<unsigned long long>(plain.counts[i].second),
                   i < traced.counts.size()
                       ? static_cast<unsigned long long>(
                             traced.counts[i].second)
                       : 0ULL);
    }
    correct = false;
  }
  if (!spans.nested()) {
    std::fprintf(stderr, "gate: spans do not nest\n");
    correct = false;
  }
  if (!correct && traced.failed == 0) traced.failed = 1;
  for (Metric& m : traced.per_layer) {
    if (m.name == "trace_overhead") {
      m.value = plain.e2e_value("sim_speed") / traced.e2e_value("sim_speed");
    }
  }
  if (!opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out);
    f << spans.chrome_json() << '\n';
    if (!f) std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }
  print_manifest(opt, traced);
  print_result(correct, traced, traced.per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
