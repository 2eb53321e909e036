"""Tests of run.py's command line and of its refusal to run without sources.

    python3 perfbench/tests/test_run.py

None of these builds anything: every case ends before the build step.
"""

import importlib.util
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent.parent
RUN = BENCH / "run.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_py(*args, cwd=None):
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=120)


class CommandLine(unittest.TestCase):
    def expect_usage_error(self, flag, *args):
        out = run_py(*args)
        self.assertEqual(out.returncode, 2, out.stderr)
        self.assertIn(flag + ":", out.stderr)
        self.assertEqual(out.stdout, "")

    def test_malformed_seed_names_the_flag(self):
        for bad in ("--seed=abc", "--seed=4x", "--seed=-1", "--seed=", "--seed=1.5", "--seed= 4"):
            with self.subTest(bad=bad):
                self.expect_usage_error("--seed", "--workload=star_websearch", bad)
        self.expect_usage_error("--seed", "--workload=star_websearch", "--seed")

    def test_non_positive_sizes_name_the_flag(self):
        for bad in ("--seconds=0", "--seconds=-3", "--seconds=nan", "--seconds=inf",
                    "--seconds=1_0"):
            with self.subTest(bad=bad):
                self.expect_usage_error(bad.split("=")[0], "--workload=star_websearch", bad)

    def test_unknown_workload_flag_or_trace_value(self):
        self.expect_usage_error("--workload", "--workload=fig08")
        self.expect_usage_error("--workload", "--seed=1")
        self.expect_usage_error("--seeed", "--workload=star_websearch", "--seeed=1")
        self.expect_usage_error("--trace", "--workload=star_websearch", "--trace=yes")

    def test_accepts_the_benchmark_command_line(self):
        run = load_run_module()
        args = run.parse_args(["--workload", "fabric_mixed", "--seed", "12", "--seconds", "10",
                               "--trace", "1"])
        self.assertEqual(args["workload"], "fabric_mixed")
        self.assertEqual(args["seed"], 12)
        self.assertEqual(args["seconds"], 10.0)
        self.assertTrue(args["trace"])
        self.assertEqual(run.parse_args(["--workload=all", "--seed=3"])["workload"], "all")


class WithoutSources(unittest.TestCase):
    def test_exits_non_zero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "star_websearch", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
            self.assertFalse((Path(tmp) / ".bench_build").exists())


if __name__ == "__main__":
    unittest.main()
