// Self-checks of the benchmark's own machinery, run with --selftest (and by
// test/test_perfbench.py): generator determinism, planted-fault validity on
// the topology, and span nesting / self times. --list-metrics prints the
// metric names and units each pass emits, for comparison with
// BENCHMARK.json.
#pragma once

namespace perfbench {

int run_selftest();
int list_metrics();

}  // namespace perfbench
