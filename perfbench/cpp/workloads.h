// The three benchmark workloads. Each call is one pass: it builds its
// inputs from the seed, sets up, measures, checks its own outputs and
// returns every end-to-end metric (and, when `traced`, every per-layer
// metric). `spans` records the benchmark's calls into each layer when on.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // traced runs write their spans here when set
};

/// flat_mesh (federated = false) and fed_sketch_chaos (federated = true).
RunResult run_full_loop(const Options& opt, bool federated, bool traced,
                        Spans& spans);

/// analyzer_close: the Analyzer alone, fed pre-generated upload batches.
RunResult run_analyzer_close(const Options& opt, bool traced, Spans& spans);

}  // namespace perfbench
