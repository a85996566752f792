"""Tests of the benchmark's own rules. Run from the repository root:

    python3 perfbench/test_metrics.py

The seed-determinism test of rendered programs needs the probe built
(`dune build ./perfbench/fscbench.exe`) and is skipped without it.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402
import run as R  # noqa: E402

PROBE = os.path.join(os.path.dirname(HERE), "_build", "default", "perfbench",
                     "fscbench.exe")


class PercentileRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(M.samples_beyond(100, 90), 10)
        self.assertEqual(M.samples_beyond(99, 90), 9)
        self.assertEqual(M.samples_beyond(1000, 99), 10)
        self.assertEqual(M.samples_beyond(20, 50), 10)

    def test_tail_is_highest_with_ten_beyond(self):
        self.assertIsNone(M.tail_percentile(19))
        self.assertEqual(M.tail_percentile(20), 50)
        self.assertEqual(M.tail_percentile(99), 50)
        self.assertEqual(M.tail_percentile(100), 90)
        self.assertEqual(M.tail_percentile(999), 90)
        self.assertEqual(M.tail_percentile(1000), 99)
        self.assertEqual(M.tail_percentile(10000), 99.9)

    def test_min_samples(self):
        self.assertEqual(M.min_samples(50), 20)
        self.assertEqual(M.min_samples(90), 100)
        self.assertEqual(M.min_samples(99), 1000)
        for p in M.PERCENTILES:
            n = M.min_samples(p)
            self.assertGreaterEqual(M.samples_beyond(n, p), M.MIN_BEYOND)
            self.assertLess(M.samples_beyond(n - 1, p), M.MIN_BEYOND)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(M.percentile(xs, 90), 90)
        self.assertEqual(M.percentile(xs, 50), 50)
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([4, 1, 2, 3]), 2.5)

    def test_timing_reports_the_highest_supported_tail(self):
        self.assertEqual(R.timing(list(range(99))),
                         {"n": 99, "p50": 49})
        t = R.timing(list(range(1000)))
        self.assertEqual(t["n"], 1000)
        self.assertEqual(t["p99"], 989)
        self.assertNotIn("p90", t)

    def test_need_refuses_thin_tails(self):
        with self.assertRaises(RuntimeError):
            R.need("x", [1.0] * 99, 90)
        self.assertEqual(R.need("x", list(range(100)), 90), 89)


class Seeds(unittest.TestCase):
    def bases(self, seed):
        return [(s["name"], "program %s\nend program\n" % s["name"])
                for s in M.program_specs(seed, 6, prefix="b")]

    def test_program_specs(self):
        a = M.program_specs(7, 50)
        self.assertEqual(a, M.program_specs(7, 50))
        self.assertNotEqual(a, M.program_specs(8, 50))
        keys = {(s["gen"], tuple(s["dims"])) for s in a}
        self.assertEqual(len(keys), 50, "extents repeat within a stream")
        self.assertEqual({s["gen"] for s in M.program_specs(7, 200)},
                         set(M.GENERATORS))

    def test_chunks_continue_the_stream(self):
        whole = M.program_specs(3, 30)
        self.assertEqual(M.program_specs(3, 10, start=20), whole[20:])

    def test_job_lines(self):
        one = M.serve_jobs(5, "c0", 64, self.bases(5))
        self.assertEqual(one, M.serve_jobs(5, "c0", 64, self.bases(5)))
        self.assertNotEqual([j[0] for j in one],
                            [j[0] for j in M.serve_jobs(6, "c0", 64,
                                                        self.bases(6))])
        self.assertNotEqual(one, M.serve_jobs(5, "c1", 64, self.bases(5)))
        for line, _, fresh, action, target in one:
            job = json.loads(line)
            self.assertEqual(job["action"], action)
            self.assertEqual(job["target"], target)
            self.assertEqual(fresh, "! fresh" in job["source"])

    @unittest.skipUnless(os.path.exists(PROBE), "probe not built")
    def test_rendered_programs(self):
        def render(seed, out):
            os.makedirs(out)
            specs = os.path.join(out, "specs.jsonl")
            with open(specs, "w") as f:
                for s in M.program_specs(seed, 10):
                    f.write(json.dumps(s) + "\n")
            subprocess.run([PROBE, "render", "--specs", specs, "--out", out],
                           check=True, capture_output=True)
            texts = []
            for name in sorted(os.listdir(out)):
                if name.endswith(".f90"):
                    with open(os.path.join(out, name), "rb") as f:
                        texts.append(f.read())
            return texts
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            a = render(11, os.path.join(d, "a"))
            b = render(11, os.path.join(d, "b"))
            c = render(12, os.path.join(d, "c"))
        self.assertEqual(len(a), 10)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(set(a)), 10)


class ComputedBytes(unittest.TestCase):
    def test_per_generator(self):
        # streams x 8 bytes x interior cells x iterations
        self.assertEqual(M.computed_bytes("gauss_seidel", [96, 96, 96], 8),
                         4 * 8 * 96 ** 3 * 8)
        self.assertEqual(M.computed_bytes("laplace", [1024], 12),
                         4 * 8 * 1024 * 1024 * 12)
        self.assertEqual(M.computed_bytes("pw_advection", [64, 64, 64], 4),
                         12 * 8 * 64 ** 3 * 4)
        self.assertEqual(M.computed_bytes("smooth", [4, 5, 6], 2),
                         5 * 8 * 120 * 2)
        # residual adds the edge probe: nx cells of u, r and u again
        self.assertEqual(M.computed_bytes("residual", [4, 5, 6], 3),
                         (2 * 8 * 120 + 3 * 8 * 4) * 3)
        self.assertEqual(set(M.STREAMS), set(M.GENERATORS))

    def test_cells(self):
        self.assertEqual(M.cells("laplace", [1024], 12), 1024 * 1024 * 12)
        self.assertEqual(M.cells("gauss_seidel", [2, 3, 4], 5), 120)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "cc.miss_ms", "gs.serial.gbytes_s.computed",
                     "a-b", "9x"):
            self.assertTrue(M.valid_metric_name(good), good)
        for bad in ("", ".x", "a b", "a/b", "x" * 65, "é", "a:b"):
            self.assertFalse(M.valid_metric_name(bad), bad)

    def test_every_published_name(self):
        names = [n for n, _ in R.END_TO_END + tuple(R.PER_LAYER)
                 + tuple(R.SERVE_LAYER)]
        for n in names:
            self.assertTrue(M.valid_metric_name(n), n)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(R.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(R.PER_LAYER))
        for w in spec["workloads"]:
            self.assertIn(w["name"], R.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
