"""Self-test of the repository benchmark.

    python3 -m unittest discover -s perfbench/test -v

Builds the benchmark the way perfbench/run.py does, then checks that

  * the metric names and units each pass emits equal those declared in
    BENCHMARK.json, and the workload names agree;
  * the benchmark's own checks pass (perfbench --selftest): the
    analyzer_close generator gives the same batch hash for the same seed,
    its planted faults are valid on the topology, and traced spans nest with
    self times >= 0.

The metric list comes from the same code that fills the result line, so the
names a run prints are the ones checked here.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)


def declared(spec, key):
    return sorted((m["name"], m["unit"]) for m in spec[key])


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(run.build())
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_match_benchmark_json(self):
        out = subprocess.run([self.binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        listed = json.loads(out)
        for key in ("end_to_end", "per_layer"):
            emitted = sorted((m["name"], m["unit"]) for m in listed[key])
            self.assertEqual(emitted, declared(self.spec, key), key)

    def test_workload_names_match_benchmark_json(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_selftest_passes(self):
        r = subprocess.run([self.binary, "--selftest"], capture_output=True,
                           text=True)
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("0 failure(s)", r.stdout)


if __name__ == "__main__":
    unittest.main()
