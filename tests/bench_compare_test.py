#!/usr/bin/env python3
"""Self-test of scripts/bench_compare.py over every checked-in baseline.

For each bench/BENCH_*.baseline.json, compared against a mutated copy of
itself, the gate must:
  * pass on the unmodified copy and when every host field is scaled x3;
  * fail when any exact field of any row moves by +1 or -1;
  * fail when a row is dropped or an exact field is removed from a row;
  * fail when the copy re-declares an exact field as host.

Run directly: python3 tests/bench_compare_test.py
"""

import contextlib
import copy
import glob
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(ROOT, "scripts", "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_compare)

BASELINES = sorted(glob.glob(os.path.join(ROOT, "bench",
                                          "BENCH_*.baseline.json")))


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.current = os.path.join(self.tmp.name, "current.json")

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, baseline, data):
        """Exit code of bench_compare for baseline vs data."""
        with open(self.current, "w") as f:
            json.dump(data, f)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return bench_compare.main(["bench_compare.py", baseline,
                                       self.current])

    def each_baseline(self):
        self.assertEqual(len(BASELINES), 8)
        for path in BASELINES:
            with open(path) as f:
                data = json.load(f)
            with self.subTest(baseline=os.path.basename(path)):
                self.assertTrue(data["exact"], "baseline gates nothing")
                yield path, data

    def test_identical_passes(self):
        for path, data in self.each_baseline():
            self.assertEqual(self.gate(path, data), 0)

    def test_host_scaled_x3_passes(self):
        for path, data in self.each_baseline():
            scaled = copy.deepcopy(data)
            for row in scaled["rows"]:
                for key in data["host"]:
                    row[key] *= 3
            self.assertEqual(self.gate(path, scaled), 0)

    def test_exact_field_off_by_one_fails(self):
        for path, data in self.each_baseline():
            for idx, row in enumerate(data["rows"]):
                for key in data["exact"]:
                    for step in (1, -1):
                        moved = copy.deepcopy(data)
                        moved["rows"][idx][key] += step
                        self.assertEqual(
                            self.gate(path, moved), 1,
                            f"{row['config']}.{key} {step:+d} passed")

    def test_missing_row_or_exact_field_fails(self):
        for path, data in self.each_baseline():
            for idx in range(len(data["rows"])):
                dropped = copy.deepcopy(data)
                del dropped["rows"][idx]
                self.assertEqual(self.gate(path, dropped), 1)
            for key in data["exact"]:
                gone = copy.deepcopy(data)
                gone["exact"].remove(key)
                for row in gone["rows"]:
                    del row[key]
                self.assertEqual(self.gate(path, gone), 1)

    def test_exact_redeclared_as_host_fails(self):
        for path, data in self.each_baseline():
            for key in data["exact"]:
                loosened = copy.deepcopy(data)
                loosened["exact"].remove(key)
                loosened["host"].append(key)
                self.assertEqual(self.gate(path, loosened), 1)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=1)
